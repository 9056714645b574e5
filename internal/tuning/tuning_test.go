package tuning

import (
	"strings"
	"testing"

	"repro/internal/chip"
	"repro/internal/rng"
	"repro/internal/silicon"
	"repro/internal/workload"
)

var refDeployment *Deployment

func deployed(t *testing.T) (*chip.Machine, *Deployment) {
	t.Helper()
	m := chip.NewReference()
	if refDeployment != nil {
		// Re-program a fresh machine with the cached deployment so
		// tests can mutate machines independently.
		for _, cfg := range refDeployment.Configs {
			if err := m.ProgramCPM(cfg.Core, cfg.Reduction); err != nil {
				t.Fatal(err)
			}
		}
		return m, refDeployment
	}
	dep, err := Deploy(m, Options{})
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	refDeployment = dep
	return m, dep
}

// TestStressLimitsMatchThreadWorst verifies the Sec. VII-A measurement:
// the thread-worst CPM configurations sustain correct execution under
// all stressmarks — i.e. the stress-test battery discovers exactly the
// thread-worst limits of Table I.
func TestStressLimitsMatchThreadWorst(t *testing.T) {
	_, dep := deployed(t)
	for _, cfg := range dep.Configs {
		_, _, _, worst, ok := silicon.ReferenceTableI(cfg.Core)
		if !ok {
			t.Fatalf("no table row for %s", cfg.Core)
		}
		if cfg.StressLimit != worst {
			t.Errorf("%s stress-test limit %d, thread-worst %d", cfg.Core, cfg.StressLimit, worst)
		}
	}
}

// TestSpeedDifferential verifies the >200 MHz inter-core differential
// the paper exposes (Sec. I, Sec. VII-A).
func TestSpeedDifferential(t *testing.T) {
	_, dep := deployed(t)
	if d := dep.SpeedDifferentialMHz(); d < 200 {
		t.Errorf("deployed speed differential %.0f MHz, want >200", d)
	}
}

// TestDeployedFrequenciesBeatBaselines: every deployed core beats both
// the static margin and the default ATM at idle.
func TestDeployedFrequenciesBeatBaselines(t *testing.T) {
	_, dep := deployed(t)
	for _, cfg := range dep.Configs {
		if cfg.IdleFreq <= 4600 {
			t.Errorf("%s deployed idle %v does not beat default ATM", cfg.Core, cfg.IdleFreq)
		}
		if cfg.LoadedFreq <= 4200 {
			t.Errorf("%s deployed loaded %v does not beat static margin", cfg.Core, cfg.LoadedFreq)
		}
		if cfg.LoadedFreq >= cfg.IdleFreq {
			t.Errorf("%s loaded %v not below idle %v (DC drop must cost frequency)",
				cfg.Core, cfg.LoadedFreq, cfg.IdleFreq)
		}
	}
}

// TestMachineProgrammedAtDeployment: Deploy leaves the machine running
// the deployed configuration.
func TestMachineProgrammedAtDeployment(t *testing.T) {
	m := chip.NewReference()
	dep, err := Deploy(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range dep.Configs {
		core, err := m.Core(cfg.Core)
		if err != nil {
			t.Fatal(err)
		}
		if core.Reduction() != cfg.Reduction {
			t.Errorf("%s machine at %d, deployment says %d", cfg.Core, core.Reduction(), cfg.Reduction)
		}
		if core.Mode() != chip.ModeATM {
			t.Errorf("%s not in ATM mode after deployment", cfg.Core)
		}
	}
}

// TestRollbackPreservesTrend verifies Fig. 11: rolling every core back
// one or two steps keeps the inter-core variation trend (the fastest
// cores stay fastest) while lowering absolute frequency.
func TestRollbackPreservesTrend(t *testing.T) {
	_, dep0 := deployed(t)

	m2 := chip.NewReference()
	dep2, err := Deploy(m2, Options{Rollback: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range dep2.Configs {
		base, _ := dep0.Config(cfg.Core)
		wantRed := base.StressLimit - 2
		if wantRed < 0 {
			wantRed = 0
		}
		if cfg.Reduction != wantRed {
			t.Errorf("%s rollback reduction %d, want %d", cfg.Core, cfg.Reduction, wantRed)
		}
		if cfg.IdleFreq > base.IdleFreq {
			t.Errorf("%s rollback raised frequency %v > %v", cfg.Core, cfg.IdleFreq, base.IdleFreq)
		}
	}
	// Trend: the two speed orderings must correlate strongly (Kendall
	// tau). A perfect match is not expected — cores like P1C7 encode
	// their whole gain in two deep steps (the Sec. IV-C non-linearity),
	// so a two-step rollback moves them far — but the bulk of the
	// ordering survives, which is what Fig. 11 shows.
	rank0 := map[string]int{}
	for i, l := range dep0.FastestCores() {
		rank0[l] = i
	}
	order2 := dep2.FastestCores()
	concordant, discordant := 0, 0
	for i := 0; i < len(order2); i++ {
		for j := i + 1; j < len(order2); j++ {
			if rank0[order2[i]] < rank0[order2[j]] {
				concordant++
			} else {
				discordant++
			}
		}
	}
	tau := float64(concordant-discordant) / float64(concordant+discordant)
	if tau < 0.5 {
		t.Errorf("speed ordering poorly preserved after rollback: Kendall tau %.2f", tau)
	}
}

func TestDeployRejectsNegativeRollback(t *testing.T) {
	m := chip.NewReference()
	if _, err := Deploy(m, Options{Rollback: -1}); err == nil {
		t.Error("negative rollback accepted")
	}
}

// TestStressTestRejectsEmptySearch: a stress test with no pass, no run
// or no stressmark examines nothing and would deploy every core at its
// maximum reduction, so StressTestCore refuses it, naming the field,
// and Deploy fails through it.
func TestStressTestRejectsEmptySearch(t *testing.T) {
	for _, tc := range []struct {
		name string
		o    Options
		want string
	}{
		{"negative passes", Options{Passes: -1}, "Passes -1"},
		{"negative runs", Options{RunsPerConfig: -1}, "RunsPerConfig -1"},
		{"empty battery", Options{Battery: []workload.Stressmark{}}, "Battery"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Deploy(chip.NewReference(), tc.o); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Deploy: err = %v, want one naming %q", err, tc.want)
			}
		})
	}
	if _, err := StressTestCore(chip.NewReference(), "P0C0", Options{}, rng.New(1)); err == nil {
		t.Error("StressTestCore accepted zero-valued Options")
	}
}

func TestFastestCoresOrdering(t *testing.T) {
	_, dep := deployed(t)
	order := dep.FastestCores()
	if len(order) != 16 {
		t.Fatalf("ordering has %d cores", len(order))
	}
	prev := dep.Configs[0].IdleFreq + 10000
	for _, label := range order {
		cfg, ok := dep.Config(label)
		if !ok {
			t.Fatalf("no config for %s", label)
		}
		if cfg.IdleFreq > prev {
			t.Fatalf("ordering not descending at %s", label)
		}
		prev = cfg.IdleFreq
	}
}

func TestConfigLookup(t *testing.T) {
	_, dep := deployed(t)
	if _, ok := dep.Config("P0C0"); !ok {
		t.Error("missing P0C0 config")
	}
	if _, ok := dep.Config("bogus"); ok {
		t.Error("bogus config returned")
	}
}
