package chip

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/silicon"
	"repro/internal/workload"
)

// TestSolveMatchesReference checks the hoisted solver against the
// per-iteration one, bit for bit, on the reference server and 20
// generated ones. Each core cycles through static, gated and ATM
// clocking, every workload, its full reduction range and the p-state
// ladder.
func TestSolveMatchesReference(t *testing.T) {
	servers := []*silicon.ServerProfile{silicon.Reference()}
	for seed := uint64(1); seed <= 20; seed++ {
		s, err := silicon.Generate(seed, silicon.GenerateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, s)
	}
	all := workload.All()
	for si, s := range servers {
		m, err := New(s, Options{})
		if err != nil {
			t.Fatal(err)
		}
		cores := m.AllCores()
		steps := len(all)
		for _, c := range cores {
			if n := c.Profile.MaxReduction() + 1; n > steps {
				steps = n
			}
		}
		for shift := 0; shift < 4; shift++ {
			for step := 0; step < steps; step++ {
				for i, c := range cores {
					switch (i + shift) % 4 {
					case 0:
						c.SetMode(ModeStatic)
						c.SetGated(false)
					case 1:
						c.SetMode(ModeATM)
						c.SetGated(true)
					default:
						c.SetMode(ModeATM)
						c.SetGated(false)
					}
					c.SetWorkload(all[(i+step)%len(all)])
					if err := c.Monitor.Program(step % (c.Profile.MaxReduction() + 1)); err != nil {
						t.Fatal(err)
					}
					if err := c.SetPState(PStates[(i+step+shift)%len(PStates)]); err != nil {
						t.Fatal(err)
					}
				}
				got, gerr := m.Solve()
				want, werr := m.SolveReference()
				if gerr != nil || werr != nil {
					t.Fatalf("server %d shift %d step %d: Solve error %v, reference error %v", si, shift, step, gerr, werr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("server %d shift %d step %d: Solve diverged from the reference\n got %+v\nwant %+v", si, shift, step, got, want)
				}
			}
		}
	}
}

// TestSolveUnknownModeError checks that an ungated core in an unknown
// mode fails the solve, and its chip's ChipSolver, with the reference's
// error, that the other chip still solves alone, and that a gated core
// in that mode fails nothing.
func TestSolveUnknownModeError(t *testing.T) {
	m := NewReference()
	c := m.Chips[1].Cores[3]
	c.SetMode(Mode(7))
	_, gerr := m.Solve()
	_, werr := m.SolveReference()
	if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
		t.Fatalf("Solve error %v, reference error %v", gerr, werr)
	}
	if _, cerr := m.NewChipSolver(m.Chips[1]).Solve(); cerr == nil || cerr.Error() != werr.Error() {
		t.Fatalf("ChipSolver error %v, reference error %v", cerr, werr)
	}
	if _, err := m.NewChipSolver(m.Chips[0]).Solve(); err != nil {
		t.Fatalf("the other chip's solve failed: %v", err)
	}
	c.SetGated(true)
	got, gerr := m.Solve()
	want, werr := m.SolveReference()
	if gerr != nil || werr != nil {
		t.Fatalf("gated core in unknown mode: Solve error %v, reference error %v", gerr, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("gated core in unknown mode: Solve diverged from the reference\n got %+v\nwant %+v", got, want)
	}
}

// TestSolveAllocs pins a reference-server Solve at five allocations:
// the state's chip slice, and per chip its core slice and the solver's
// per-core scratch.
func TestSolveAllocs(t *testing.T) {
	m := NewReference()
	var err error
	if n := testing.AllocsPerRun(20, func() { _, err = m.Solve() }); n != 5 {
		t.Fatalf("Solve allocates %v times per call, want 5", n)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestChipSolverMatchesSolve re-solves each chip of the reference
// server and of 20 generated ones with one ChipSolver per chip while
// every core cycles through static, gated and ATM clocking, every
// workload and its full reduction range: each solve's chip power and
// core frequencies must equal the chip's entry of Machine.Solve bit for
// bit, so the solver re-reads every setting, the CPM guard included.
func TestChipSolverMatchesSolve(t *testing.T) {
	servers := []*silicon.ServerProfile{silicon.Reference()}
	for seed := uint64(1); seed <= 20; seed++ {
		s, err := silicon.Generate(seed, silicon.GenerateOptions{Chips: 1 + int(seed%2)})
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, s)
	}
	all := workload.All()
	for si, s := range servers {
		m, err := New(s, Options{})
		if err != nil {
			t.Fatal(err)
		}
		solvers := make([]*ChipSolver, len(m.Chips))
		for ci, c := range m.Chips {
			solvers[ci] = m.NewChipSolver(c)
		}
		for step := 0; step < 12; step++ {
			for i, c := range m.AllCores() {
				c.SetMode(ModeATM)
				c.SetGated(false)
				switch (i + step) % 4 {
				case 0:
					c.SetMode(ModeStatic)
				case 1:
					c.SetGated(true)
				}
				c.SetWorkload(all[(i+step)%len(all)])
				if err := c.Monitor.Program(step % (c.Profile.MaxReduction() + 1)); err != nil {
					t.Fatal(err)
				}
			}
			want, err := m.Solve()
			if err != nil {
				t.Fatal(err)
			}
			for ci, sv := range solvers {
				p, err := sv.Solve()
				if err != nil {
					t.Fatal(err)
				}
				wc := want.Chips[ci]
				if math.Float64bits(float64(p)) != math.Float64bits(float64(wc.Power)) {
					t.Fatalf("server %d step %d chip %s: power %v, Solve %v", si, step, wc.Label, p, wc.Power)
				}
				for k, cs := range wc.Cores {
					if f := sv.Freq(k); math.Float64bits(float64(f)) != math.Float64bits(float64(cs.Freq)) {
						t.Fatalf("server %d step %d core %s: freq %v, Solve %v", si, step, cs.Label, f, cs.Freq)
					}
				}
			}
		}
	}
}

// TestChipSolverAllocs pins a chip-scoped solve at zero allocations.
func TestChipSolverAllocs(t *testing.T) {
	m := NewReference()
	sv := m.NewChipSolver(m.Chips[1])
	var err error
	if n := testing.AllocsPerRun(20, func() { _, err = sv.Solve() }); n != 0 {
		t.Fatalf("ChipSolver.Solve allocates %v times per call, want 0", n)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestSolvePopulationConverges solves 60 generated machines of one to
// three chips and four to eight cores, each core drawn as ATM, static
// at a random p-state, or gated, with a random workload and reduction.
// Every chip must converge within solveMaxIter, reach a finite
// operating point, and match the reference solver bit for bit.
func TestSolvePopulationConverges(t *testing.T) {
	src := rng.New(1).Split("solve-population")
	all := workload.All()
	for seed := uint64(1); seed <= 60; seed++ {
		s, err := silicon.Generate(1000+seed, silicon.GenerateOptions{
			Chips: 1 + src.Intn(3), CoresPerChip: 4 + src.Intn(5),
		})
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(s, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range m.AllCores() {
			switch src.Intn(5) {
			case 0:
				c.SetGated(true)
			case 1:
				c.SetMode(ModeStatic)
				if err := c.SetPState(PStates[src.Intn(len(PStates))]); err != nil {
					t.Fatal(err)
				}
			}
			c.SetWorkload(all[src.Intn(len(all))])
			if err := c.Monitor.Program(src.Intn(c.Profile.MaxReduction() + 1)); err != nil {
				t.Fatal(err)
			}
		}
		got, err := m.Solve()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, cs := range got.Chips {
			for _, x := range []float64{float64(cs.Supply), float64(cs.TempC), float64(cs.Power)} {
				if math.IsNaN(x) || math.IsInf(x, 0) || x <= 0 {
					t.Fatalf("seed %d chip %s: operating point %+v is not finite and positive", seed, cs.Label, cs)
				}
			}
		}
		want, err := m.SolveReference()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: Solve diverged from the reference\n got %+v\nwant %+v", seed, got, want)
		}
	}
}

// TestSolveNonConvergenceIsAnError gives one chip a thermal path so
// resistive that leakage runs away: the solve, and that chip's
// ChipSolver, must fail, naming the chip and its last steps, instead of
// returning the last iterate.
func TestSolveNonConvergenceIsAnError(t *testing.T) {
	m := NewReference()
	m.Chips[1].Thermal.ResistanceCPerW = 100
	_, err := m.Solve()
	if err == nil {
		t.Fatal("Solve converged through a thermal runaway")
	}
	label := m.Chips[1].Profile.Label
	for _, want := range []string{"chip: " + label + " did not converge", "200 iterations", "last steps"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("Solve error %q does not contain %q", err, want)
		}
	}
	if _, cerr := m.NewChipSolver(m.Chips[1]).Solve(); cerr == nil || cerr.Error() != err.Error() {
		t.Fatalf("ChipSolver error %v, Solve error %v", cerr, err)
	}
}

// TestWorstCaseCornerSolves pins the platform's thermal resistance
// inside the region where the steady state exists. On the reference
// server and 16 generated ones, with every core at its maximum
// reduction running each Sec. VII-A stressmark in turn, Solve must
// converge to a finite operating point. Leakage grows exponentially
// with temperature, so past some resistance the fixed point
// T = Tamb + R·P(T) has no solution: the power virus solved at
// 0.55 °C/W and ran away at 0.64 °C/W, about 2× the 0.28 °C/W the
// platform uses.
func TestWorstCaseCornerSolves(t *testing.T) {
	servers := []*silicon.ServerProfile{silicon.Reference()}
	for seed := uint64(1); seed <= 16; seed++ {
		s, err := silicon.Generate(seed, silicon.GenerateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, s)
	}
	for i, s := range servers {
		m, err := New(s, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, mark := range workload.TestTimeSuite() {
			for _, c := range m.AllCores() {
				if err := c.Monitor.Program(c.Profile.MaxReduction()); err != nil {
					t.Fatal(err)
				}
				c.SetWorkload(mark.Profile)
			}
			st, err := m.Solve()
			if err != nil {
				t.Errorf("server %d, %s at maximum reduction: %v", i, mark.Profile.Name, err)
				continue
			}
			for _, cs := range st.Chips {
				for _, x := range []float64{float64(cs.Supply), float64(cs.TempC), float64(cs.Power)} {
					if math.IsNaN(x) || math.IsInf(x, 0) || x <= 0 {
						t.Errorf("server %d, %s, chip %s: operating point %+v is not finite and positive",
							i, mark.Profile.Name, cs.Label, cs)
					}
				}
			}
		}
	}
}
