package perf

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestRunStageCountsAndValidates(t *testing.T) {
	ran := 0
	st := Stage{
		Name: "s", Group: "kernel", Iters: 10, AllocStable: true,
		Run: func(iters int) (int64, error) {
			ran += iters
			return int64(iters) * 3, nil
		},
	}
	r, err := RunStage(st)
	if err != nil {
		t.Fatal(err)
	}
	if r.TrialsPerOp != 3 {
		t.Errorf("trials/op = %d, want 3", r.TrialsPerOp)
	}
	if r.NSPerOp < 0 || r.TrialsPerSec <= 0 {
		t.Errorf("bad timing: ns/op=%d trials/s=%g", r.NSPerOp, r.TrialsPerSec)
	}
	if r.AllocsPerOp != 0 {
		t.Errorf("closure with no allocations measured %d allocs/op", r.AllocsPerOp)
	}
	if _, err := RunStage(Stage{Name: "bad", Iters: 0}); err == nil {
		t.Fatal("zero-iters stage accepted")
	}
}

func TestStagesPlanAndGroups(t *testing.T) {
	all, err := Stages(true)
	if err != nil {
		t.Fatal(err)
	}
	groups := map[string]int{}
	names := map[string]bool{}
	for _, st := range all {
		if names[st.Name] {
			t.Errorf("duplicate stage name %s", st.Name)
		}
		names[st.Name] = true
		groups[st.Group]++
		if st.Iters <= 0 {
			t.Errorf("stage %s: non-positive iters", st.Name)
		}
	}
	for _, g := range StageGroups {
		if groups[g] == 0 {
			t.Errorf("no stages in group %s", g)
		}
	}

	// Every quick-plan stage has a row in the checked-in baseline, in
	// plan order, so no stage can land without a CI gate.
	base, err := ReadDoc("../../BENCH_core.json")
	if err != nil {
		t.Fatal(err)
	}
	if base.Bench != "core" || !base.Quick {
		t.Errorf("BENCH_core.json: bench %q quick=%v, want core quick=true", base.Bench, base.Quick)
	}
	if len(base.Stages) != len(all) {
		t.Errorf("BENCH_core.json has %d stage row(s), the quick plan %d", len(base.Stages), len(all))
	}
	for i := 0; i < len(all) && i < len(base.Stages); i++ {
		st, row := all[i], base.Stages[i]
		if row.Name != st.Name || row.Group != st.Group || row.Iters != int64(st.Iters) {
			t.Errorf("stage %d: plan has %s/%s×%d, BENCH_core.json row is %s/%s×%d",
				i, st.Group, st.Name, st.Iters, row.Group, row.Name, row.Iters)
		}
	}

	kernelOnly, err := Stages(true, "kernel")
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range kernelOnly {
		if st.Group != "kernel" {
			t.Errorf("group filter leaked %s/%s", st.Group, st.Name)
		}
	}
	if _, err := Stages(true, "bogus"); err == nil {
		t.Fatal("unknown group accepted")
	}
}

// TestKernelStagesRunAndAllocFree pins the hot kernels: they must
// execute and the pure-math ones must stay at 0 allocs/op.
func TestKernelStagesRunAndAllocFree(t *testing.T) {
	stages, err := Stages(true, "kernel")
	if err != nil {
		t.Fatal(err)
	}
	zeroAlloc := map[string]bool{
		"cpm_site_delay":     true,
		"cpm_measure":        true,
		"dpll_step":          true,
		"pdn_steady_voltage": true,
		"pdn_step_response":  true,
		"pdn_first_droop":    true,
		"chip_run_trial":     true,
		"chip_run_trial_app": true,
	}
	for _, st := range stages {
		st.Iters = 200 // the full plan is overkill for a unit test
		r, err := RunStage(st)
		if err != nil {
			t.Fatalf("stage %s: %v", st.Name, err)
		}
		if r.TrialsPerOp < 1 {
			t.Errorf("stage %s: trials/op = %d, want >= 1", st.Name, r.TrialsPerOp)
		}
		if zeroAlloc[st.Name] && r.AllocsPerOp != 0 {
			t.Errorf("stage %s: allocs/op = %d, want 0", st.Name, r.AllocsPerOp)
		}
	}
}

func TestDocMarshalAndCanonical(t *testing.T) {
	results := []StageResult{
		{
			Stage:       Stage{Name: "a", Group: "kernel", Iters: 10, AllocStable: true, Note: "n"},
			TrialsPerOp: 1, AllocsPerOp: 0, NSPerOp: 100, TrialsPerSec: 1e7,
		},
		{
			Stage:       Stage{Name: "b", Group: "fleet", Iters: 1},
			TrialsPerOp: 4, AllocsPerOp: 123, NSPerOp: 5000, TrialsPerSec: 8e5,
		},
	}
	doc := NewDoc(true, results)
	if doc.Stages[1].AllocsPerOp != -1 {
		t.Errorf("alloc-unstable stage row allocs = %d, want -1", doc.Stages[1].AllocsPerOp)
	}
	if doc.Timing.Stages["b"].AllocsPerOp != 123 {
		t.Errorf("unstable allocs missing from timing: %+v", doc.Timing.Stages["b"])
	}
	raw, err := doc.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var back Doc
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("marshal emitted invalid JSON: %v", err)
	}

	// Canonical form strips timing and nothing else.
	canon, err := doc.CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	doc2 := NewDoc(true, results)
	doc2.Timing.TotalNS = 999999 // a different machine
	doc2.Timing.Stages["a"] = StageTiming{NSPerOp: 1}
	canon2, err := doc2.CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canon, canon2) {
		t.Fatalf("canonical bytes depend on timing:\n%s\n%s", canon, canon2)
	}
	if !bytes.Contains(raw, []byte(`"timing"`)) || bytes.Contains(canon, []byte(`"ns_per_op"`)) {
		t.Fatal("timing stripping misbehaved")
	}
}

func TestCompareGates(t *testing.T) {
	mk := func(allocs, ns int64) *Doc {
		return &Doc{
			Bench: "core", Schema: SchemaVersion, Quick: true,
			Stages: []StageRow{{Name: "k", Group: "kernel", Iters: 10, TrialsPerOp: 1, AllocsPerOp: allocs}},
			Timing: Timing{Stages: map[string]StageTiming{"k": {NSPerOp: ns}}},
		}
	}
	base := mk(2, 1000)

	if regs, err := Compare(base, mk(2, 1900)); err != nil || len(regs) != 0 {
		t.Fatalf("within tolerance flagged: %v %v", regs, err)
	}
	if regs, _ := Compare(base, mk(2, 2100)); len(regs) != 1 || !strings.Contains(regs[0].Detail, "ns/op") {
		t.Fatalf("2.1× ns regression not flagged: %v", regs)
	}
	// Single-digit ns/op stages quantize: 1 → 3 ns is timer resolution,
	// not a 3× regression — the absolute noise floor absorbs it.
	if regs, _ := Compare(mk(2, 1), mk(2, 3)); len(regs) != 0 {
		t.Fatalf("sub-floor quantization flagged: %v", regs)
	}
	if regs, _ := Compare(mk(2, 20), mk(2, 200)); len(regs) != 1 {
		t.Fatalf("fast stage with a real regression not flagged: %v", regs)
	}
	if regs, _ := Compare(base, mk(3, 1000)); len(regs) != 1 || !strings.Contains(regs[0].Detail, "allocs") {
		t.Fatalf("alloc growth not flagged: %v", regs)
	}
	if regs, _ := Compare(base, mk(1, 1000)); len(regs) != 0 {
		t.Fatalf("alloc shrink flagged: %v", regs)
	}

	// Alloc-unstable baselines (-1) never gate allocs.
	unstableBase := mk(-1, 1000)
	if regs, _ := Compare(unstableBase, mk(-1, 1000)); len(regs) != 0 {
		t.Fatalf("unstable allocs gated: %v", regs)
	}

	// A vanished stage is a regression; mismatched plans refuse.
	gone := mk(2, 1000)
	gone.Stages = nil
	if regs, _ := Compare(base, gone); len(regs) != 1 {
		t.Fatalf("missing stage not flagged: %v", regs)
	}
	full := mk(2, 1000)
	full.Quick = false
	if _, err := Compare(base, full); err == nil {
		t.Fatal("quick/full comparison accepted")
	}
	other := mk(2, 1000)
	other.Bench = "fsp"
	if _, err := Compare(base, other); err == nil {
		t.Fatal("cross-bench comparison accepted")
	}
}

func TestCompareFloodDivergence(t *testing.T) {
	mk := func(executed int64) *Doc {
		return &Doc{
			Bench: "fsp", Schema: SchemaVersion, Quick: true,
			Flood: &FloodRow{Sessions: 8, Commands: 50, Pipeline: 8, Seed: 1, Executed: executed},
		}
	}
	if regs, err := Compare(mk(400), mk(400)); err != nil || len(regs) != 0 {
		t.Fatalf("identical flood flagged: %v %v", regs, err)
	}
	if regs, _ := Compare(mk(400), mk(399)); len(regs) != 1 || regs[0].Stage != "flood" {
		t.Fatalf("diverged flood not flagged: %v", regs)
	}
	// Different options are a plan change, not a regression.
	changed := mk(999)
	changed.Flood.Sessions = 16
	if regs, _ := Compare(mk(400), changed); len(regs) != 0 {
		t.Fatalf("option change misflagged as regression: %v", regs)
	}
}

func TestReadDocRejectsBadSchema(t *testing.T) {
	dir := t.TempDir()
	doc := &Doc{Bench: "core", Schema: "atm-bench/v999", Quick: true}
	raw, _ := json.Marshal(doc)
	path := dir + "/BENCH_core.json"
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDoc(path); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("bad schema accepted: %v", err)
	}
}
