package chip

import (
	"reflect"
	"testing"

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
// mode fails the solve with the reference's error, and that a gated
// one does not.
func TestSolveUnknownModeError(t *testing.T) {
	m := NewReference()
	c := m.Chips[1].Cores[3]
	c.SetMode(Mode(7))
	_, gerr := m.Solve()
	_, werr := m.SolveReference()
	if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
		t.Fatalf("Solve error %v, reference error %v", gerr, werr)
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
