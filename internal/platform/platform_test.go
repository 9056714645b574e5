package platform

import (
	"testing"

	"repro/internal/silicon"
	"repro/internal/tuning"
)

func TestBuildReference(t *testing.T) {
	srv, err := Build(Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if srv.Injector != nil {
		t.Fatal("fault-free spec built an injector")
	}
	ref := silicon.Reference()
	if got, want := len(srv.Profile.Chips), len(ref.Chips); got != want {
		t.Fatalf("reference server has %d chips, want %d", got, want)
	}
	if got, want := len(srv.Machine.AllCores()), 16; got != want {
		t.Fatalf("reference machine has %d cores, want %d", got, want)
	}
}

func TestBuildGeneratedMatchesDirectGenerate(t *testing.T) {
	srv, err := Build(Spec{SiliconSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := silicon.Generate(42, silicon.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(srv.Profile.Chips), len(direct.Chips); got != want {
		t.Fatalf("built %d chips, generator made %d", got, want)
	}
	for i := range direct.Chips {
		if srv.Profile.Chips[i].Label != direct.Chips[i].Label {
			t.Fatalf("chip %d label %q, want %q", i, srv.Profile.Chips[i].Label, direct.Chips[i].Label)
		}
	}
}

func TestBuildSingleChipOverride(t *testing.T) {
	srv, err := Build(Spec{SiliconSeed: 7, Chips: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(srv.Profile.Chips); got != 1 {
		t.Fatalf("built %d chips, want 1", got)
	}
	if got := len(srv.Machine.AllCores()); got != 8 {
		t.Fatalf("single-chip machine has %d cores, want 8", got)
	}
}

func TestBuildOverridesRequireSeed(t *testing.T) {
	if _, err := Build(Spec{Chips: 1}); err == nil {
		t.Fatal("chip override on the reference profile did not error")
	}
}

func TestBuildArmsFaults(t *testing.T) {
	srv, err := Build(Spec{SiliconSeed: 3, FaultProfile: "test-floor", FaultSeed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if srv.Injector == nil {
		t.Fatal("faulted spec built no injector")
	}
	// "none" and the empty profile stay on the fault-free path.
	for _, p := range []string{"", "none"} {
		srv, err := Build(Spec{SiliconSeed: 3, FaultProfile: p})
		if err != nil {
			t.Fatal(err)
		}
		if srv.Injector != nil {
			t.Fatalf("profile %q built an injector", p)
		}
	}
	if _, err := Build(Spec{FaultProfile: "no-such-profile"}); err == nil {
		t.Fatal("bad fault profile did not error")
	}
}

func TestProvisionServer(t *testing.T) {
	srv, err := Build(Spec{SiliconSeed: 11, Chips: 1})
	if err != nil {
		t.Fatal(err)
	}
	prov, err := ProvisionServer(srv, ProvisionOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(prov.Chips); got != 1 {
		t.Fatalf("provisioned %d chips, want 1", got)
	}
	cp := prov.Chips[0]
	if cp.LoadedW <= cp.IdleW || cp.IdleW <= 0 {
		t.Fatalf("power envelope not ordered: idle %v loaded %v", cp.IdleW, cp.LoadedW)
	}
	if got := len(cp.Cores); got != 8 {
		t.Fatalf("chip has %d core records, want 8", got)
	}
	for _, c := range cp.Cores {
		if c.Quarantined {
			if c.FreqSlope != 0 || c.FreqIntercept != 0 {
				t.Fatalf("core %s: quarantined but carries a predictor fit", c.Core)
			}
			continue
		}
		// Eq. 1: frequency falls as chip power rises, from a positive
		// intercept.
		if c.FreqSlope >= 0 {
			t.Fatalf("core %s: Eq. 1 slope %v not negative", c.Core, c.FreqSlope)
		}
		if c.FreqIntercept <= 0 {
			t.Fatalf("core %s: Eq. 1 intercept %v not positive", c.Core, c.FreqIntercept)
		}
	}
	// The provision must match a direct quick deployment on an
	// identical server — platform adds calibration, not new behavior.
	srv2, err := Build(Spec{SiliconSeed: 11, Chips: 1})
	if err != nil {
		t.Fatal(err)
	}
	dep, err := tuning.Deploy(srv2.Machine, tuning.Options{Seed: 11, Passes: 1, RunsPerConfig: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range dep.Configs {
		rec := cp.Cores[i]
		if cfg.Core != rec.Core || cfg.StressLimit != rec.StressLimit ||
			float64(cfg.IdleFreq) != rec.IdleFreqMHz || cfg.Quarantined != rec.Quarantined {
			t.Fatalf("core %s: provision diverged from direct deployment: %+v vs %+v", cfg.Core, rec, cfg)
		}
	}
}

func TestProvisionDeterministic(t *testing.T) {
	run := func() *Provision {
		srv, err := Build(Spec{SiliconSeed: 5, Chips: 1, FaultProfile: "broken=1", FaultSeed: 2})
		if err != nil {
			t.Fatal(err)
		}
		prov, err := ProvisionServer(srv, ProvisionOptions{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return prov
	}
	a, b := run(), run()
	if a.SpeedDiffMHz != b.SpeedDiffMHz {
		t.Fatal("provision diverged between identical runs")
	}
	for i := range a.Chips {
		if a.Chips[i].IdleW != b.Chips[i].IdleW || a.Chips[i].LoadedW != b.Chips[i].LoadedW {
			t.Fatalf("chip %d envelope diverged", i)
		}
		for j := range a.Chips[i].Cores {
			if a.Chips[i].Cores[j] != b.Chips[i].Cores[j] {
				t.Fatalf("chip %d core %d record diverged", i, j)
			}
		}
	}
}

// TestProvisionView covers the re-admission rebuild hook: the
// projection the dc recovery ladder re-materializes a node from.
func TestProvisionView(t *testing.T) {
	p := &Provision{Chips: []ChipProvision{{
		Chip: "chip0", IdleW: 50, LoadedW: 130,
		Cores: []CoreProvision{
			{Core: "C0", FreqSlope: -2.5, FreqIntercept: 4000},
			{Core: "C1", Quarantined: true},
		},
	}}}
	v, err := p.View()
	if err != nil {
		t.Fatal(err)
	}
	if v.IdleW != 50 || v.SpanW != 40 || !v.Live || len(v.Cores) != 2 {
		t.Fatalf("view = %+v, want idle 50, span (130-50)/2 = 40, live, 2 cores", v)
	}
	if v.Cores[0].Quarantined || v.Cores[0].Slope != -2.5 || v.Cores[0].Intercept != 4000 {
		t.Fatalf("core 0 view = %+v", v.Cores[0])
	}
	if !v.Cores[1].Quarantined {
		t.Fatal("core 1 lost its quarantine flag")
	}

	// All cores quarantined: the node is not live.
	dead := &Provision{Chips: []ChipProvision{{
		Chip: "chip0", IdleW: 50, LoadedW: 50,
		Cores: []CoreProvision{{Core: "C0", Quarantined: true}},
	}}}
	if v, err := dead.View(); err != nil || v.Live {
		t.Fatalf("all-quarantined view = (%+v, %v), want dead but valid", v, err)
	}

	// Validation failures: wrong chip count, inverted envelope.
	if _, err := (&Provision{}).View(); err == nil {
		t.Fatal("chipless provision accepted")
	}
	twoChips := &Provision{Chips: make([]ChipProvision, 2)}
	if _, err := twoChips.View(); err == nil {
		t.Fatal("multi-chip provision accepted as a single-chip node")
	}
	inverted := &Provision{Chips: []ChipProvision{{Chip: "chip0", IdleW: 90, LoadedW: 50}}}
	if _, err := inverted.View(); err == nil {
		t.Fatal("inverted power envelope accepted")
	}
}
