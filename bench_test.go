// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation. Each benchmark regenerates its artifact from the simulated
// platform and reports the headline quantity the paper's version of that
// table/figure carries, so `go test -bench=. -benchmem` doubles as the
// reproduction run (see EXPERIMENTS.md for paper-vs-measured numbers).
package atm

import (
	"io"
	"sync"
	"testing"

	"repro/internal/charact"
	"repro/internal/chip"
	"repro/internal/manage"
	"repro/internal/rng"
	"repro/internal/tuning"
	"repro/internal/workload"
)

// benchSuite is the shared, lazily built experiment pipeline. Building
// it (characterization + deployment + predictor calibration) is itself
// measured by dedicated benchmarks below; the per-figure benchmarks
// reuse one instance so they measure regeneration, not setup.
var (
	benchOnce sync.Once
	benchS    *Suite
	benchErr  error
)

func suite(b *testing.B) *Suite {
	b.Helper()
	benchOnce.Do(func() {
		benchS, benchErr = NewSuite(SuiteOptions{})
		if benchErr != nil {
			return
		}
		// Materialize every stage so figure benchmarks are pure.
		if _, err := benchS.Report(); err != nil {
			benchErr = err
			return
		}
		if _, err := benchS.Deployment(); err != nil {
			benchErr = err
			return
		}
		if _, err := benchS.Manager(); err != nil {
			benchErr = err
		}
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchS
}

// benchArtifact runs one experiment per iteration and renders it to
// io.Discard (rendering is part of regeneration).
func benchArtifact(b *testing.B, id string) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := s.RunExperiment(id)
		if err != nil {
			b.Fatal(err)
		}
		if err := a.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig01FrequencyBounds regenerates Fig. 1 (frequency under the
// four margin schemes) and reports the fine-tuned idle ceiling.
func BenchmarkFig01FrequencyBounds(b *testing.B) {
	s := suite(b)
	dep, err := s.Deployment()
	if err != nil {
		b.Fatal(err)
	}
	var maxIdle float64
	for _, cfg := range dep.Configs {
		if f := float64(cfg.IdleFreq); f > maxIdle {
			maxIdle = f
		}
	}
	benchArtifact(b, "fig1")
	b.ReportMetric(maxIdle, "finetuned-idle-MHz")
}

// BenchmarkFig02SqueezeNetLatency regenerates Fig. 2 and reports the
// best-schedule latency (paper: ≈68 ms).
func BenchmarkFig02SqueezeNetLatency(b *testing.B) {
	s := suite(b)
	mgr, err := s.Manager()
	if err != nil {
		b.Fatal(err)
	}
	pts, err := mgr.LatencyStudy(workload.MustByName("squeezenet"))
	if err != nil {
		b.Fatal(err)
	}
	benchArtifact(b, "fig2")
	b.ReportMetric(pts[len(pts)-1].LatencyMs, "best-latency-ms")
}

// BenchmarkFig04bPresetDelays regenerates Fig. 4b and reports the preset
// spread ratio (paper: ≈3×).
func BenchmarkFig04bPresetDelays(b *testing.B) {
	s := suite(b)
	lo, hi := 1<<30, 0
	for _, c := range s.M.Profile().AllCores() {
		if c.PresetTaps < lo {
			lo = c.PresetTaps
		}
		if c.PresetTaps > hi {
			hi = c.PresetTaps
		}
	}
	benchArtifact(b, "fig4b")
	b.ReportMetric(float64(hi)/float64(lo), "preset-spread-x")
}

// BenchmarkFig05ReductionSweep regenerates Fig. 5.
func BenchmarkFig05ReductionSweep(b *testing.B) { benchArtifact(b, "fig5") }

// BenchmarkFig07IdleLimits regenerates Fig. 7 and reports how many cores
// exceed 5 GHz at their idle limit (paper: more than half).
func BenchmarkFig07IdleLimits(b *testing.B) {
	s := suite(b)
	rep, err := s.Report()
	if err != nil {
		b.Fatal(err)
	}
	over := 0
	for _, c := range rep.Cores {
		if c.IdleFreq > 5000 {
			over++
		}
	}
	benchArtifact(b, "fig7")
	b.ReportMetric(float64(over), "cores-over-5GHz")
}

// BenchmarkTable1Limits regenerates Table I and reports the number of
// cells matching the published table (64 = exact reproduction).
func BenchmarkTable1Limits(b *testing.B) {
	s := suite(b)
	rep, err := s.Report()
	if err != nil {
		b.Fatal(err)
	}
	match := 0
	for _, row := range rep.TableI() {
		pi, pu, pn, pw, ok := ReferenceTableIRow(row.Core)
		if !ok {
			continue
		}
		if row.Idle == pi {
			match++
		}
		if row.UBench == pu {
			match++
		}
		if row.Normal == pn {
			match++
		}
		if row.Worst == pw {
			match++
		}
	}
	benchArtifact(b, "table1")
	b.ReportMetric(float64(match), "cells-matching-paper")
}

// BenchmarkFig08UBenchRollback regenerates Fig. 8 and reports the number
// of cores that need a rollback (paper: 6).
func BenchmarkFig08UBenchRollback(b *testing.B) {
	s := suite(b)
	rep, err := s.Report()
	if err != nil {
		b.Fatal(err)
	}
	n := 0
	for _, c := range rep.Cores {
		if c.UBenchLimit < c.Idle.Limit {
			n++
		}
	}
	benchArtifact(b, "fig8")
	b.ReportMetric(float64(n), "rollback-cores")
}

// BenchmarkFig09X264VsGcc regenerates Fig. 9 and reports the aggregate
// rollback ratio between x264 and gcc.
func BenchmarkFig09X264VsGcc(b *testing.B) {
	s := suite(b)
	rep, err := s.Report()
	if err != nil {
		b.Fatal(err)
	}
	var x, g float64
	for _, c := range rep.Cores {
		x += c.AppRollbackMean["x264"]
		g += c.AppRollbackMean["gcc"]
	}
	if g > 0 {
		b.ReportMetric(x/g, "x264-over-gcc-rollback")
	} else {
		b.ReportMetric(x, "x264-total-rollback")
	}
	benchArtifact(b, "fig9")
}

// BenchmarkFig10RollbackMatrix regenerates the full Fig. 10 heatmap.
func BenchmarkFig10RollbackMatrix(b *testing.B) { benchArtifact(b, "fig10") }

// BenchmarkFig11Deployment regenerates Fig. 11 and reports the exposed
// inter-core speed differential (paper: >200 MHz).
func BenchmarkFig11Deployment(b *testing.B) {
	s := suite(b)
	dep, err := s.Deployment()
	if err != nil {
		b.Fatal(err)
	}
	benchArtifact(b, "fig11")
	b.ReportMetric(dep.SpeedDifferentialMHz(), "speed-differential-MHz")
}

// BenchmarkFig12aFreqPredictor regenerates Fig. 12a and reports the mean
// Eq. 1 slope (paper: ≈2 MHz/W).
func BenchmarkFig12aFreqPredictor(b *testing.B) {
	s := suite(b)
	mgr, err := s.Manager()
	if err != nil {
		b.Fatal(err)
	}
	var sum float64
	for _, fp := range mgr.Preds.Freq {
		sum += fp.MHzPerWatt()
	}
	benchArtifact(b, "fig12a")
	b.ReportMetric(sum/float64(len(mgr.Preds.Freq)), "MHz-per-watt")
}

// BenchmarkFig12bPerfPredictor regenerates Fig. 12b and reports the
// x264-to-mcf slope ratio (compute-bound vs memory-bound separation).
func BenchmarkFig12bPerfPredictor(b *testing.B) {
	s := suite(b)
	mgr, err := s.Manager()
	if err != nil {
		b.Fatal(err)
	}
	ratio := mgr.Preds.Perf["x264"].Fit.Slope / mgr.Preds.Perf["mcf"].Fit.Slope
	benchArtifact(b, "fig12b")
	b.ReportMetric(ratio, "x264-over-mcf-slope")
}

// BenchmarkTable2Classification regenerates Table II.
func BenchmarkTable2Classification(b *testing.B) { benchArtifact(b, "table2") }

// BenchmarkFig14Management regenerates the full Fig. 14 evaluation and
// reports the managed-max average improvement (paper: ≈15.2%).
func BenchmarkFig14Management(b *testing.B) {
	s := suite(b)
	mgr, err := s.Manager()
	if err != nil {
		b.Fatal(err)
	}
	pairs := manage.Fig14Pairs()
	var sum float64
	for _, pair := range pairs {
		ev, err := mgr.Evaluate(ScenarioManagedMax, pair, 0.10)
		if err != nil {
			b.Fatal(err)
		}
		sum += ev.Improvement()
	}
	benchArtifact(b, "fig14")
	b.ReportMetric(100*sum/float64(len(pairs)), "managed-max-pct")
}

// --- Extension studies (beyond the paper; see DESIGN.md §6) ---

// BenchmarkExtUndervolt regenerates the undervolting study and reports
// the fine-tuned idle power saving at the 4.2 GHz target.
func BenchmarkExtUndervolt(b *testing.B) {
	s := suite(b)
	dep, err := s.Deployment()
	if err != nil {
		b.Fatal(err)
	}
	m := chip.NewReference()
	for _, cfg := range dep.Configs {
		if err := m.ProgramCPM(cfg.Core, cfg.Reduction); err != nil {
			b.Fatal(err)
		}
	}
	res, err := m.SolveUndervolt("P0", 4200)
	if err != nil {
		b.Fatal(err)
	}
	benchArtifact(b, "ext-undervolt")
	b.ReportMetric(100*res.SavingsFrac(), "finetuned-savings-pct")
}

// BenchmarkExtMonteCarlo regenerates the process-corner population study.
func BenchmarkExtMonteCarlo(b *testing.B) { benchArtifact(b, "ext-montecarlo") }

// BenchmarkExtAblationLoadline regenerates the loadline sweep.
func BenchmarkExtAblationLoadline(b *testing.B) { benchArtifact(b, "ext-ablation-loadline") }

// BenchmarkExtAblationNoise regenerates the noise-tail sweep.
func BenchmarkExtAblationNoise(b *testing.B) { benchArtifact(b, "ext-ablation-noise") }

// BenchmarkExtAblationTrials regenerates the trial-count sweep.
func BenchmarkExtAblationTrials(b *testing.B) { benchArtifact(b, "ext-ablation-trials") }

// BenchmarkExtScheduler regenerates the dynamic job-stream study.
func BenchmarkExtScheduler(b *testing.B) { benchArtifact(b, "ext-scheduler") }

// BenchmarkExtCPMPrediction regenerates the counter-prediction study.
func BenchmarkExtCPMPrediction(b *testing.B) { benchArtifact(b, "ext-cpm-prediction") }

// BenchmarkExtGovernors regenerates the governor trade-off study.
func BenchmarkExtGovernors(b *testing.B) { benchArtifact(b, "ext-governors") }

// --- Platform benchmarks: the cost of the pipeline stages themselves ---

// BenchmarkSolveSteadyState measures one full-machine fixed-point solve.
func BenchmarkSolveSteadyState(b *testing.B) {
	m := chip.NewReference()
	for _, core := range m.AllCores() {
		core.SetWorkload(workload.X264)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCharacterizeServer measures the full Sec. III-B methodology
// over 16 cores.
func BenchmarkCharacterizeServer(b *testing.B) {
	m := chip.NewReference()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := charact.Characterize(m, charact.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeployServer measures the test-time stress-test procedure.
func BenchmarkDeployServer(b *testing.B) {
	m := chip.NewReference()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tuning.Deploy(m, tuning.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCalibratePredictors measures the manager's Eq. 1 + Fig. 12b
// calibration pass.
func BenchmarkCalibratePredictors(b *testing.B) {
	m := chip.NewReference()
	if _, err := tuning.Deploy(m, tuning.Options{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := manage.CalibratePredictors(m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransient1kIntervals measures the cycle-approximate control
// loop stepper (8 cores × 1000 intervals).
func BenchmarkTransient1kIntervals(b *testing.B) {
	m := chip.NewReference()
	src := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Transient("P0", 1000, 1.0, src.SplitIndex("iter", i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerateSilicon measures the Monte-Carlo silicon generator.
func BenchmarkGenerateSilicon(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := GenerateSilicon(uint64(i)+1, GenerateOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
