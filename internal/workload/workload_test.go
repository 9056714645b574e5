package workload

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLibraryIntegrity(t *testing.T) {
	all := All()
	if len(all) < 25 {
		t.Fatalf("library has only %d profiles", len(all))
	}
	seen := map[string]bool{}
	for _, p := range all {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if seen[p.Name] {
			t.Errorf("duplicate %s", p.Name)
		}
		seen[p.Name] = true
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("x264")
	if err != nil || p.Name != "x264" {
		t.Fatalf("ByName(x264) = %v, %v", p, err)
	}
	if _, err := ByName("doom"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestMustByNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustByName(unknown) did not panic")
		}
	}()
	MustByName("doom")
}

func TestUBenchSet(t *testing.T) {
	ub := UBench()
	if len(ub) != 3 {
		t.Fatalf("uBench set has %d members", len(ub))
	}
	names := map[string]bool{}
	for _, p := range ub {
		names[p.Name] = true
		if p.StressScore != UBenchStressScore {
			t.Errorf("%s stress %g, want the shared uBench score", p.Name, p.StressScore)
		}
	}
	for _, want := range []string{"coremark", "daxpy", "stream"} {
		if !names[want] {
			t.Errorf("missing uBench %s", want)
		}
	}
}

// TestTableIIPartition verifies the Table II structure: the realistic
// workloads partition into critical and background, and the paper's
// named examples land in the right cells.
func TestTableIIPartition(t *testing.T) {
	crit := map[string]bool{}
	for _, p := range Critical() {
		crit[p.Name] = true
	}
	bg := map[string]bool{}
	for _, p := range Background() {
		bg[p.Name] = true
	}
	for name := range crit {
		if bg[name] {
			t.Errorf("%s in both roles", name)
		}
	}
	if len(crit)+len(bg) != len(Realistic()) {
		t.Errorf("roles do not partition: %d + %d != %d", len(crit), len(bg), len(Realistic()))
	}
	// Table II spot checks.
	for _, name := range []string{"resnet", "vgg19", "ferret", "fluidanimate", "squeezenet", "seq2seq", "babi", "bodytrack", "vips"} {
		if !crit[name] {
			t.Errorf("%s should be critical", name)
		}
	}
	for _, name := range []string{"mlp", "gcc", "facesim", "lu_cb", "streamcluster", "blackscholes", "x264", "swaptions", "raytrace"} {
		if !bg[name] {
			t.Errorf("%s should be background", name)
		}
	}
	// Memory-interference cells.
	for _, name := range []string{"resnet", "vgg19", "ferret", "fluidanimate", "mlp", "gcc", "facesim", "lu_cb", "streamcluster"} {
		if !MustByName(name).MemIntensive() {
			t.Errorf("%s should be memory-intensive per Table II", name)
		}
	}
	for _, name := range []string{"squeezenet", "seq2seq", "babi", "bodytrack", "vips", "blackscholes", "x264", "swaptions", "raytrace"} {
		if MustByName(name).MemIntensive() {
			t.Errorf("%s should be non-intensive per Table II", name)
		}
	}
}

// worstStress returns the most stressful realistic workload, the one
// that defines the thread-worst configuration (x264 in the paper).
func worstStress() Profile {
	ws := Realistic()[0]
	for _, p := range Realistic() {
		if p.StressScore > ws.StressScore {
			ws = p
		}
	}
	return ws
}

func TestStressOrderings(t *testing.T) {
	// Fig. 9/10: x264 and ferret top the stress ranking; gcc and leela
	// sit at the bottom.
	if worstStress().Name != "x264" {
		t.Errorf("worst stress = %s, want x264", worstStress().Name)
	}
	x, f := MustByName("x264"), MustByName("ferret")
	g, l := MustByName("gcc"), MustByName("leela")
	if !(x.StressScore >= f.StressScore && f.StressScore > 0.8) {
		t.Error("x264/ferret not at the top of the stress ranking")
	}
	if g.StressScore > 0.25 || l.StressScore > 0.25 {
		t.Error("gcc/leela not at the bottom of the stress ranking")
	}
}

func TestRelPerfProperties(t *testing.T) {
	const base = 4200.0
	for _, p := range All() {
		if got := p.RelPerf(base, base); math.Abs(got-1) > 1e-12 {
			t.Errorf("%s RelPerf at base = %g, want 1", p.Name, got)
		}
		if p.RelPerf(0, base) != 0 || p.RelPerf(base, 0) != 0 {
			t.Errorf("%s RelPerf degenerate inputs not 0", p.Name)
		}
		prev := 0.0
		for f := 3000.0; f <= 5500; f += 100 {
			rp := p.RelPerf(f, base)
			if rp <= prev {
				t.Fatalf("%s RelPerf not increasing at %g MHz", p.Name, f)
			}
			prev = rp
		}
	}
}

// TestMemoryBoundGainsLess pins the Fig. 12b separation: at the same
// frequency boost, mcf gains far less than x264.
func TestMemoryBoundGainsLess(t *testing.T) {
	const base, boosted = 4200.0, 4900.0
	gainX := MustByName("x264").RelPerf(boosted, base) - 1
	gainM := MustByName("mcf").RelPerf(boosted, base) - 1
	if gainM >= 0.5*gainX {
		t.Errorf("mcf gain %.3f not well below x264 gain %.3f", gainM, gainX)
	}
}

func TestLatency(t *testing.T) {
	sq := MustByName("squeezenet")
	if got := sq.LatencyMs(4200, 4200); math.Abs(got-80) > 1e-9 {
		t.Errorf("squeezenet baseline latency = %g, want 80 ms (Fig. 2)", got)
	}
	if got := sq.LatencyMs(4900, 4200); got >= 80 || got < 60 {
		t.Errorf("squeezenet latency at 4.9 GHz = %g, want in (60, 80)", got)
	}
	if got := MustByName("gcc").LatencyMs(4900, 4200); got != 0 {
		t.Errorf("gcc has no latency metric but returned %g", got)
	}
}

func TestRelPerfBounded(t *testing.T) {
	prop := func(fRaw uint16, mRaw uint8) bool {
		f := 1000 + float64(fRaw%8000)
		p := Profile{Name: "q", MemIntensity: float64(mRaw) / 255}
		rp := p.RelPerf(f, 4200)
		// Performance can never exceed the frequency ratio, and a
		// fully memory-bound profile never moves.
		if rp > f/4200+1e-9 && f > 4200 {
			return false
		}
		if p.MemIntensity == 1 && math.Abs(rp-1) > 1e-9 {
			return false
		}
		return rp > 0
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestStressmarks(t *testing.T) {
	for _, s := range TestTimeSuite() {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Profile.Name, err)
		}
	}
	vv := VoltageVirus()
	if !vv.Synchronized || vv.ThrottlePeriod != 128 || vv.ThreadsPerCore != 4 {
		t.Errorf("voltage virus recipe wrong: %+v", vv)
	}
	if vv.Profile.StressScore < worstStress().StressScore {
		t.Error("voltage virus below the worst profiled application stress")
	}
	if PowerVirus().Profile.CdynRel < 1 {
		t.Error("power virus not the highest-power workload")
	}
}

func TestStressmarkCurrentStep(t *testing.T) {
	vv := VoltageVirus()
	step := vv.CurrentStepAmps(8, 14, 1.25)
	if step <= 0 {
		t.Fatal("synchronized virus produced no current step")
	}
	// 8 cores × 14 W × 0.9 swing / 1.25 V ≈ 80 A.
	if math.Abs(step-80.64) > 1e-9 {
		t.Errorf("current step = %g A, want 80.64", step)
	}
	if PowerVirus().CurrentStepAmps(8, 14, 1.25) != 0 {
		t.Error("unsynchronized stressmark should produce no synchronized step")
	}
	if vv.CurrentStepAmps(8, 14, 0) != 0 {
		t.Error("zero voltage should produce no step")
	}
}

func TestStressmarkValidateCatchesBadness(t *testing.T) {
	s := VoltageVirus()
	s.ThreadsPerCore = 5 // POWER7+ is 4-way SMT
	if err := s.Validate(); err == nil {
		t.Error("5 threads per core accepted")
	}
	s = VoltageVirus()
	s.ThrottlePeriod = -1
	if err := s.Validate(); err == nil {
		t.Error("negative throttle period accepted")
	}
}

func TestValidateCatchesBadProfiles(t *testing.T) {
	bad := []Profile{
		{Name: ""},
		{Name: "a", CdynRel: -1},
		{Name: "a", CdynRel: 2},
		{Name: "a", MemIntensity: 1.5},
		{Name: "a", StressScore: 2},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad profile %d accepted", i)
		}
	}
}

// TestAccessorsReturnCopies: every list accessor hands out its own
// slice, so a caller that modifies one leaves the library, and the next
// call, as they were.
func TestAccessorsReturnCopies(t *testing.T) {
	for _, acc := range []struct {
		name string
		get  func() []Profile
	}{
		{"All", All},
		{"UBench", UBench},
		{"Realistic", Realistic},
		{"Critical", Critical},
		{"Background", Background},
	} {
		t.Run(acc.name, func(t *testing.T) {
			want := acc.get()
			if len(want) == 0 {
				t.Fatal("empty list")
			}
			got := acc.get()
			got[0].Name, got[0].StressScore = "clobbered", 9
			got[len(got)-1] = Profile{}
			_ = append(got[:1], Profile{Name: "appended"})
			again := acc.get()
			if len(again) != len(want) {
				t.Fatalf("length %d after a caller's edits, want %d", len(again), len(want))
			}
			for i := range want {
				if again[i] != want[i] {
					t.Fatalf("entry %d is %+v after a caller's edits, want %+v", i, again[i], want[i])
				}
			}
			if p, err := ByName(want[0].Name); err != nil || p != want[0] {
				t.Fatalf("ByName(%q) = %+v, %v after a caller's edits", want[0].Name, p, err)
			}
		})
	}
}

// TestAccessorsConcurrent calls the accessors from several goroutines,
// each editing what it got; under -race it checks that no two callers
// share memory.
func TestAccessorsConcurrent(t *testing.T) {
	want := Realistic()
	done := make(chan bool)
	for g := 0; g < 4; g++ {
		go func() {
			ok := true
			for k := 0; k < 50; k++ {
				ub, apps := UBench(), Realistic()
				ub[0].StressScore++
				apps[len(apps)-1].Name = "edited"
				ok = ok && len(apps) == len(want) && apps[0] == want[0] && len(All()) > len(apps)
			}
			done <- ok
		}()
	}
	for g := 0; g < 4; g++ {
		if !<-done {
			t.Error("a concurrent caller saw another caller's edit")
		}
	}
}
