package fault

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/charact"
	"repro/internal/chip"
	"repro/internal/tuning"
	"repro/internal/workload"
)

// quickCharact keeps the methodology fast enough for the fault matrix.
func quickCharact() charact.Options {
	return charact.Options{
		Trials:        2,
		RunsPerConfig: 2,
		Apps:          workload.Realistic()[:2],
	}
}

func quickDeploy() tuning.Options {
	return tuning.Options{Passes: 1, RunsPerConfig: 2}
}

func TestInjectorChoicesDeterministic(t *testing.T) {
	p, err := ParseProfile("broken=2")
	if err != nil {
		t.Fatal(err)
	}
	a, b := New(p, 42), New(p, 42)
	a.ArmMachine(chip.NewReference())
	b.ArmMachine(chip.NewReference())
	if !reflect.DeepEqual(a.broken, b.broken) {
		t.Errorf("broken cores differ: %v vs %v", a.broken, b.broken)
	}
	if len(a.broken) != 2 {
		t.Errorf("chose %v broken; want 2", a.broken)
	}
	// A different seed picks different victims (with overwhelming
	// probability on a 16-core machine; seed pair chosen to differ).
	c := New(p, 43)
	c.ArmMachine(chip.NewReference())
	if reflect.DeepEqual(a.broken, c.broken) {
		t.Error("seeds 42 and 43 chose identical victims")
	}
}

// TestCharacterizeQuarantinesBrokenCores is the graceful-degradation
// contract: with persistently broken cores armed, Characterize completes,
// quarantines exactly the injector's victims, and stays valid.
func TestCharacterizeQuarantinesBrokenCores(t *testing.T) {
	p, err := ParseProfile("broken=2")
	if err != nil {
		t.Fatal(err)
	}
	m := chip.NewReference()
	inj := New(p, 7)
	inj.ArmMachine(m)
	rep, err := charact.Characterize(m, quickCharact())
	if err != nil {
		t.Fatalf("Characterize with broken cores aborted: %v", err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("report invalid: %v", err)
	}
	var got []string
	for _, c := range rep.Cores {
		if c.Quarantined {
			got = append(got, c.Core)
			if c.QuarantineReason == "" {
				t.Errorf("%s quarantined without a reason", c.Core)
			}
			if c.Idle.Hist == nil || c.UBenchRollback == nil || c.AppLimit == nil {
				t.Errorf("%s: quarantined result has nil containers", c.Core)
			}
		}
	}
	if want := inj.broken; !reflect.DeepEqual(got, want) {
		t.Errorf("quarantined %v, want the injector's broken set %v", got, want)
	}
	for _, row := range rep.TableI() {
		want := false
		for _, b := range inj.broken {
			if row.Core == b {
				want = true
			}
		}
		if row.Quarantined != want {
			t.Errorf("TableI row %s quarantined=%v, want %v", row.Core, row.Quarantined, want)
		}
	}
}

// TestDeployQuarantinesBrokenCores: the test-time flow must complete with
// broken cores parked at reduction 0 in static mode.
func TestDeployQuarantinesBrokenCores(t *testing.T) {
	p, err := ParseProfile("broken=1")
	if err != nil {
		t.Fatal(err)
	}
	m := chip.NewReference()
	inj := New(p, 7)
	inj.ArmMachine(m)
	dep, err := tuning.Deploy(m, quickDeploy())
	if err != nil {
		t.Fatalf("Deploy with a broken core aborted: %v", err)
	}
	if got, want := dep.Quarantined(), inj.broken; !reflect.DeepEqual(got, want) {
		t.Fatalf("quarantined %v, want %v", got, want)
	}
	for _, label := range dep.Quarantined() {
		cfg, ok := dep.Config(label)
		if !ok {
			t.Fatalf("no config for quarantined %s", label)
		}
		if cfg.Reduction != 0 || !cfg.Quarantined || cfg.QuarantineReason == "" {
			t.Errorf("%s: config %+v, want reduction 0 and a quarantine reason", label, cfg)
		}
		core, err := m.Core(label)
		if err != nil {
			t.Fatal(err)
		}
		if core.Mode() != chip.ModeStatic {
			t.Errorf("%s deployed in mode %v, want static fallback", label, core.Mode())
		}
	}
	// Healthy cores still got a real ATM deployment.
	healthy := 0
	for _, cfg := range dep.Configs {
		if !cfg.Quarantined && cfg.StressLimit > 0 {
			healthy++
		}
	}
	if healthy == 0 {
		t.Error("no healthy core got a non-zero stress limit")
	}
}

// TestSpuriousFailuresRetried: with a low transient failure rate and the
// default retry budget, characterization completes with no quarantine and
// its limits still validate.
func TestSpuriousFailuresRetried(t *testing.T) {
	p, err := ParseProfile("trial-err=0.01")
	if err != nil {
		t.Fatal(err)
	}
	m := chip.NewReference()
	New(p, 11).ArmMachine(m)
	rep, err := charact.Characterize(m, quickCharact())
	if err != nil {
		t.Fatalf("Characterize under transient noise aborted: %v", err)
	}
	for _, c := range rep.Cores {
		if c.Quarantined {
			t.Errorf("%s quarantined under retryable noise: %s", c.Core, c.QuarantineReason)
		}
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("report invalid: %v", err)
	}
}

// TestNoFaultArmIsTransparent: an empty profile arms nothing, so the
// machine's outputs equal a never-armed machine's.
func TestNoFaultArmIsTransparent(t *testing.T) {
	base, err := charact.Characterize(chip.NewReference(), quickCharact())
	if err != nil {
		t.Fatal(err)
	}
	m := chip.NewReference()
	inj := New(Profile{}, 7)
	inj.ArmMachine(m)
	rep, err := charact.Characterize(m, quickCharact())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.TableI(), base.TableI()) {
		t.Error("empty-profile arm changed Table I")
	}
}

// TestEveryFaultKeyActs: each key the grammar accepts changes what a
// deployment decides. A key that parses, validates and prints as armed
// while every result equals the fault-free run's misleads whoever sets
// it. The keys come from Profile's spec tags, so a key added later is
// held to the same rule.
func TestEveryFaultKeyActs(t *testing.T) {
	outcome := func(p Profile) string {
		m := chip.NewReference()
		New(p, 1).ArmMachine(m)
		dep, err := tuning.Deploy(m, quickDeploy())
		if err != nil {
			t.Fatalf("Deploy under %v: %v", p, err)
		}
		out := ""
		for _, cfg := range dep.Configs {
			out += fmt.Sprintf("%s %d %d %v\n", cfg.Core, cfg.StressLimit, cfg.Reduction, cfg.Quarantined)
		}
		return out
	}
	base := outcome(Profile{})
	typ := reflect.TypeOf(Profile{})
	for i := 0; i < typ.NumField(); i++ {
		var p Profile
		switch f := reflect.ValueOf(&p).Elem().Field(i); f.Kind() {
		case reflect.Float64:
			f.SetFloat(0.5)
		case reflect.Int:
			f.SetInt(1)
		}
		if outcome(p) == base {
			t.Errorf("key %s: %v deploys the fault-free limits, reductions and quarantines", typ.Field(i).Tag.Get("spec"), p)
		}
	}
}

// renderCharact flattens a report into a canonical string for the
// byte-identity checks below.
func renderCharact(rep *charact.Report) string {
	out := ""
	for _, row := range rep.TableI() {
		out += fmt.Sprintf("%s %d %d %d %d %v\n",
			row.Core, row.Idle, row.UBench, row.Normal, row.Worst, row.Quarantined)
	}
	return out
}

func renderDeploy(dep *tuning.Deployment) string {
	out := ""
	for _, cfg := range dep.Configs {
		out += fmt.Sprintf("%s %d %d %.3f %.3f %v\n",
			cfg.Core, cfg.StressLimit, cfg.Reduction,
			float64(cfg.IdleFreq), float64(cfg.LoadedFreq), cfg.Quarantined)
	}
	return out
}

// TestFaultedRunsDeterministic is the headline replay guarantee: two
// independent runs with the same profile and fault seed produce
// byte-identical characterization and deployment reports.
func TestFaultedRunsDeterministic(t *testing.T) {
	p, err := ParseProfile("test-floor,broken=1")
	if err != nil {
		t.Fatal(err)
	}
	run := func() (string, string) {
		m := chip.NewReference()
		New(p, 7).ArmMachine(m)
		rep, err := charact.Characterize(m, quickCharact())
		if err != nil {
			t.Fatalf("Characterize: %v", err)
		}
		m2 := chip.NewReference()
		New(p, 7).ArmMachine(m2)
		dep, err := tuning.Deploy(m2, quickDeploy())
		if err != nil {
			t.Fatalf("Deploy: %v", err)
		}
		return renderCharact(rep), renderDeploy(dep)
	}
	c1, d1 := run()
	c2, d2 := run()
	if c1 != c2 {
		t.Errorf("characterization reports differ across identically-seeded runs:\n--- run 1\n%s--- run 2\n%s", c1, c2)
	}
	if d1 != d2 {
		t.Errorf("deployment reports differ across identically-seeded runs:\n--- run 1\n%s--- run 2\n%s", d1, d2)
	}
}
