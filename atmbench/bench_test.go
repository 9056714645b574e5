package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro"
)

// contract is the part of BENCHMARK.json the program must honour.
type contract struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// runCLI runs the command in-process on two units with one set-up and
// returns its exit code, its output lines and the decoded final line.
// tamper, when non-nil, corrupts every unit's output.
func runCLI(t *testing.T, tamper func(output), args ...string) (int, []string, result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr, func(cfg *config) {
		cfg.units, cfg.setups, cfg.tamper = 2, 1, tamper
	})
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line %q: %v (stderr %s)", args, lines[len(lines)-1], err, stderr.String())
	}
	return code, lines, res
}

// metricNames checks that a run's JSON carries exactly the named
// metrics, each with its contract unit.
func metricNames(t *testing.T, label string, res result, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, contract lists %d", label, len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", label, m.Name)
			continue
		}
		if got.Unit != m.Unit {
			t.Errorf("%s: metric %s unit %q, contract %q", label, m.Name, got.Unit, m.Unit)
		}
	}
}

func TestEveryEndToEndMetricPrinted(t *testing.T) {
	c := loadContract(t)
	for _, w := range workloads {
		code, lines, res := runCLI(t, nil, "--workload", w.name, "--seed", "5")
		if code != 0 || !res.Correct || res.Attempted != 2 || res.Failed != 0 {
			t.Fatalf("%s: exit %d, result %+v", w.name, code, res)
		}
		metricNames(t, w.name, res, c.EndToEnd)
		for _, m := range c.EndToEnd {
			if v := res.Metrics[m.Name].Value; !(v > 0) {
				t.Errorf("%s: %s = %v, want > 0", w.name, m.Name, v)
			}
		}
		printed := map[string]bool{}
		for _, l := range lines {
			if f := strings.Fields(l); len(f) == 4 && f[0] == "metric" {
				printed[f[1]+" "+f[3]] = true
			}
		}
		for _, m := range c.EndToEnd {
			if !printed[m.Name+" "+m.Unit] {
				t.Errorf("%s: no printed line for %s in %s", w.name, m.Name, m.Unit)
			}
		}
		if out := strings.Join(lines, "\n"); !strings.Contains(out, "\nmetric fail_ratio 0 ratio\n") {
			t.Errorf("%s: fail_ratio not printed as 0:\n%s", w.name, out)
		}
	}
}

// exactMetricNames are the per-layer counts a speed-only change must
// leave identical.
var exactMetricNames = []string{
	"charact.runs_per_unit", "charact.fail_run_ratio",
	"dc.place_attempts", "dc.place_useful_ratio", "dc.migrations", "dc.shed", "dc.violations",
	"lifetime.epochs_per_unit", "lifetime.trials_per_unit", "lifetime.retunes_per_unit",
}

func simStatsLine(t *testing.T, lines []string) string {
	t.Helper()
	for _, l := range lines {
		if strings.HasPrefix(l, "simstats ") {
			return l
		}
	}
	t.Fatal("no simstats line")
	return ""
}

func TestTracedRunRepeatsExactCounts(t *testing.T) {
	c := loadContract(t)
	for _, w := range workloads {
		var first []string
		var firstRes result
		for k := 0; k < 2; k++ {
			code, lines, res := runCLI(t, nil, "--workload", w.name, "--seed", "7", "--trace", "1")
			if code != 0 || !res.Correct {
				t.Fatalf("%s traced: exit %d, result %+v", w.name, code, res)
			}
			metricNames(t, w.name+" traced", res, c.PerLayer)
			if out := strings.Join(lines, "\n"); !strings.Contains(out, "\nmetric host.speed ") {
				t.Errorf("%s traced: host.speed not printed:\n%s", w.name, out)
			}
			if k == 0 {
				first, firstRes = lines, res
				continue
			}
			if a, b := simStatsLine(t, first), simStatsLine(t, lines); a != b {
				t.Errorf("%s: simulated statistics differ across runs:\n%s\n%s", w.name, a, b)
			}
			for _, name := range exactMetricNames {
				if a, b := firstRes.Metrics[name].Value, res.Metrics[name].Value; math.Float64bits(a) != math.Float64bits(b) {
					t.Errorf("%s: exact count %s = %v then %v", w.name, name, a, b)
				}
			}
		}
		// The traced run records the counts the untraced one can.
		_, plain, _ := runCLI(t, nil, "--workload", w.name, "--seed", "7")
		if w.name != "charact-pop" && simStatsLine(t, plain) != simStatsLine(t, first) {
			t.Errorf("%s: traced and untraced simulated statistics differ", w.name)
		}
	}
}

func TestTamperedOutputFailsTheRun(t *testing.T) {
	ref, err := atm.Characterize(atm.NewReferenceMachine(), atm.CharactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkTableI(ref); err != nil {
		t.Fatalf("reference characterization: %v", err)
	}
	ref.Cores[3].Idle.Limit++
	if err := checkTableI(ref); err == nil {
		t.Error("a changed Table I cell passed the accuracy anchor")
	}

	tampers := map[string]func(output){
		"charact-pop": func(o output) {
			c := &o.(*charactOut).rep.Cores[0]
			c.ThreadWorst = c.ThreadNormal + 1
		},
		"dc-overload":       func(o output) { o.(*dcOut).res.Ops.Migrations++ },
		"lifetime-sentinel": func(o output) { o.(*lifetimeOut).res.Failures++ },
	}
	for _, w := range workloads {
		code, lines, res := runCLI(t, tampers[w.name], "--workload", w.name, "--seed", "5")
		if code == 0 || res.Correct || res.Failed != res.Attempted {
			t.Errorf("%s: tampered outputs gave exit %d, result %+v", w.name, code, res)
		}
		if out := strings.Join(lines, "\n"); !strings.Contains(out, "\nmetric fail_ratio 1 ratio\n") {
			t.Errorf("%s: fail_ratio not 1:\n%s", w.name, out)
		}
	}
}

func TestScaleToReferenceCancelsHostSpeed(t *testing.T) {
	unit := []float64{10, 20, 30, 40}
	cal := make([]float64, len(unit))
	for _, speed := range []float64{1, 0.5, 2} {
		for i := range cal {
			cal[i] = calibrationRefNS / speed
		}
		for i, got := range scaleToReference(unit, cal) {
			if want := unit[i] * speed; math.Abs(got-want) > 1e-9 {
				t.Errorf("host speed %v: unit %d scaled to %v, want %v", speed, i, got, want)
			}
		}
	}
}

func TestCheckAttributionRejectsImpossibleShares(t *testing.T) {
	for _, tc := range []struct {
		estimates []metric
		ok        bool
	}{
		{[]metric{{"a", 30, "ms"}, {"b", 50, "ms"}, {"residual", 20, "ms"}}, true},
		// Within the slack for timing noise.
		{[]metric{{"a", 30, "ms"}, {"b", 74, "ms"}, {"residual", -4, "ms"}}, true},
		{[]metric{{"a", 30, "ms"}, {"b", 80, "ms"}, {"residual", -10, "ms"}}, false},
		{[]metric{{"a", -10, "ms"}, {"b", 80, "ms"}, {"residual", 30, "ms"}}, false},
		{[]metric{{"a", 120, "ms"}, {"b", -30, "ms"}, {"residual", 10, "ms"}}, false},
	} {
		if err := checkAttribution(tc.estimates); (err == nil) != tc.ok {
			t.Errorf("%v: checkAttribution gave %v", tc.estimates, err)
		}
	}
}

func TestTraceAttributionSumsToUnitTime(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		// Sixteen sampled units, so the medians ride out a pause.
		r, err := measure(w, config{seed: 9, units: 16, setups: 1, traced: true, traceDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		var unitMS float64
		for _, m := range r.metrics {
			if m.name == "trace.unit_ms" {
				unitMS = m.value
			}
		}
		sum := 0.0
		for _, e := range r.estimates {
			sum += e.value
		}
		if len(r.estimates) < 2 || r.estimates[len(r.estimates)-1].name != "residual" {
			t.Fatalf("%s: estimates %v lack layers or the residual", w.name, r.estimates)
		}
		if !(unitMS > 0) || math.Abs(sum-unitMS) > 1e-9*unitMS {
			t.Errorf("%s: estimates sum to %v ms, traced unit time %v ms", w.name, sum, unitMS)
		}
		// Every share, the residual included, lies within the unit, up
		// to attributionSlack.
		t.Logf("%s: trace.unit_ms %.3f, attribution %v", w.name, unitMS, r.estimates)
		if r.implausible != nil {
			t.Errorf("%s: %v (estimates %v)", w.name, r.implausible, r.estimates)
		}

		b, err := os.ReadFile(filepath.Join(dir, w.name+"-seed9.json"))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Layers      []string
			Attribution []metricValue
			Spans       []struct {
				Name   string
				Parent int
				Start  int64 `json:"start_ns"`
				End    int64 `json:"end_ns"`
				SelfNS int64 `json:"self_ns"`
			}
		}
		if err := json.Unmarshal(b, &doc); err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range r.estimates {
			names = append(names, e.name)
		}
		if !reflect.DeepEqual(doc.Layers, names) || len(doc.Attribution) != len(names) {
			t.Errorf("%s: trace file layers %v, report %v", w.name, doc.Layers, names)
		}
		// Self times partition each top-level span's duration.
		var top, self int64
		for _, sp := range doc.Spans {
			if sp.End < sp.Start || sp.SelfNS < 0 {
				t.Fatalf("%s: bad span %+v", w.name, sp)
			}
			if sp.Parent < 0 {
				top += sp.End - sp.Start
			}
			self += sp.SelfNS
		}
		if top == 0 || top != self {
			t.Errorf("%s: self times sum to %d ns, top-level spans cover %d ns", w.name, self, top)
		}
	}
}
