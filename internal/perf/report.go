package perf

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
)

// SchemaVersion versions the BENCH_*.json artifact layout. Bump it
// when a field changes meaning; the comparator refuses cross-version
// comparisons instead of guessing.
const SchemaVersion = "atm-bench/v1"

// Doc is one BENCH_*.json artifact. Every field outside Timing is
// deterministic for a fixed (code, seed, plan): the determinism tests
// compare documents with Timing stripped, and the CI gate reads the
// canonical rows for allocs and the timing rows for ns/op.
type Doc struct {
	// Bench names the artifact family: "core" for stage docs (NewDoc).
	// Compare refuses a baseline of another family.
	Bench string `json:"bench"`
	// Schema is SchemaVersion.
	Schema string `json:"schema"`
	// Quick marks the CI-sized plan. Baselines are checked in quick so
	// the CI gate compares like for like; full runs are for humans.
	Quick bool `json:"quick"`
	// Stages are the canonical per-stage rows, in run order.
	Stages []StageRow `json:"stages,omitempty"`
	// Timing quarantines every machine- and moment-dependent number.
	Timing Timing `json:"timing"`
}

// StageRow is one stage's canonical row.
type StageRow struct {
	Name        string `json:"name"`
	Group       string `json:"group"`
	Iters       int64  `json:"iters"`
	TrialsPerOp int64  `json:"trials_per_op"`
	// AllocsPerOp is the exact single-P allocation count, or -1 for
	// alloc-unstable (parallel) stages, whose reading lives in Timing.
	AllocsPerOp int64  `json:"allocs_per_op"`
	Note        string `json:"note,omitempty"`
}

// Timing is the one sub-object wall clocks may touch.
type Timing struct {
	CPUs    int   `json:"cpus"`
	TotalNS int64 `json:"total_ns"`
	// Stages carries per-stage wall numbers keyed by stage name
	// (encoding/json emits map keys sorted, so the file layout is
	// stable even though the values are not).
	Stages map[string]StageTiming `json:"stages,omitempty"`
}

// StageTiming is one stage's wall-clock reading.
type StageTiming struct {
	NSPerOp      int64   `json:"ns_per_op"`
	TrialsPerSec float64 `json:"trials_per_sec"`
	// AllocsPerOp appears here only for alloc-unstable stages.
	AllocsPerOp int64 `json:"allocs_per_op,omitempty"`
}

// NewDoc assembles the "core" artifact from measured stages.
func NewDoc(quick bool, results []StageResult) *Doc {
	doc := &Doc{
		Bench:  "core",
		Schema: SchemaVersion,
		Quick:  quick,
		Timing: Timing{CPUs: runtime.NumCPU(), Stages: map[string]StageTiming{}},
	}
	for _, r := range results {
		row := StageRow{
			Name:        r.Stage.Name,
			Group:       r.Stage.Group,
			Iters:       int64(r.Stage.Iters),
			TrialsPerOp: r.TrialsPerOp,
			AllocsPerOp: r.AllocsPerOp,
			Note:        r.Stage.Note,
		}
		st := StageTiming{NSPerOp: r.NSPerOp, TrialsPerSec: r.TrialsPerSec}
		if !r.Stage.AllocStable {
			row.AllocsPerOp = -1
			st.AllocsPerOp = r.AllocsPerOp
		}
		doc.Stages = append(doc.Stages, row)
		doc.Timing.Stages[r.Stage.Name] = st
		doc.Timing.TotalNS += r.NSPerOp * int64(r.Stage.Iters)
	}
	return doc
}

// Marshal renders the artifact: two-space indent, trailing newline —
// the checked-in form.
func (d *Doc) Marshal() ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(d); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// ReadDoc loads and schema-checks an artifact file.
func ReadDoc(path string) (*Doc, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d Doc
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("perf: %s: %w", path, err)
	}
	if d.Schema != SchemaVersion {
		return nil, fmt.Errorf("perf: %s: schema %q, want %q", path, d.Schema, SchemaVersion)
	}
	return &d, nil
}

// Regression is one baseline violation.
type Regression struct {
	Stage  string
	Detail string
}

func (r Regression) String() string { return r.Stage + ": " + r.Detail }

// NSRegressionFactor is the timing tolerance: a stage only fails the
// gate when its ns/op exceeds the baseline by more than this factor,
// so shared-runner noise cannot flake the build. Allocation counts
// have no tolerance — any growth on an alloc-stable stage fails.
const NSRegressionFactor = 2.0

// nsNoiseFloor is the absolute slack under the ratio gate: a stage
// must also regress by more than this many ns/op to fail. Single-digit
// ns/op stages (a loadline solve is ~2 ns) quantize to integers, where
// 1 → 3 ns is timer resolution, not a 3× regression; sub-floor kernels
// effectively gate at baseline+floor instead of the meaningless ratio.
const nsNoiseFloor = 50

// Compare gates current against baseline: >NSRegressionFactor ns/op
// growth or any allocs/op growth on an alloc-stable stage is a
// regression, as is a stage that disappeared. Throughput is
// informational and never gates. Docs of another family or another
// plan (quick vs full) refuse to compare — the numbers would be
// meaningless.
func Compare(baseline, current *Doc) ([]Regression, error) {
	if baseline.Bench != current.Bench {
		return nil, fmt.Errorf("perf: comparing bench %q against baseline %q", current.Bench, baseline.Bench)
	}
	if baseline.Quick != current.Quick {
		return nil, fmt.Errorf("perf: comparing quick=%v run against quick=%v baseline", current.Quick, baseline.Quick)
	}
	cur := make(map[string]StageRow, len(current.Stages))
	for _, row := range current.Stages {
		cur[row.Name] = row
	}
	var regs []Regression
	for _, base := range baseline.Stages {
		row, ok := cur[base.Name]
		if !ok {
			regs = append(regs, Regression{base.Name, "stage missing from current run"})
			continue
		}
		if base.AllocsPerOp >= 0 && row.AllocsPerOp > base.AllocsPerOp {
			regs = append(regs, Regression{base.Name,
				fmt.Sprintf("allocs/op grew %d → %d", base.AllocsPerOp, row.AllocsPerOp)})
		}
		bt, bok := baseline.Timing.Stages[base.Name]
		ct, cok := current.Timing.Stages[base.Name]
		if bok && cok && bt.NSPerOp > 0 &&
			float64(ct.NSPerOp) > float64(bt.NSPerOp)*NSRegressionFactor &&
			ct.NSPerOp > bt.NSPerOp+nsNoiseFloor {
			regs = append(regs, Regression{base.Name,
				fmt.Sprintf("ns/op regressed >%.0f×: %d → %d", NSRegressionFactor, bt.NSPerOp, ct.NSPerOp)})
		}
	}
	sort.Slice(regs, func(i, j int) bool {
		if regs[i].Stage != regs[j].Stage {
			return regs[i].Stage < regs[j].Stage
		}
		return regs[i].Detail < regs[j].Detail
	})
	return regs, nil
}
