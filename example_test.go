package atm

import (
	"fmt"
	"log"
	"os"
	"sort"

	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/workload"
)

// Build the paper-calibrated POWER7+ server, fine-tune one core's ATM
// control loop by programming its Critical Path Monitors, and watch
// the frequency gain: the paper's core mechanism (Fig. 5).
func Example_quickstart() {
	// The reference machine reproduces the paper's two 8-core POWER7+
	// chips; every core starts in default ATM (~4.6 GHz at idle).
	m := NewReferenceMachine()

	st, err := m.Solve()
	if err != nil {
		log.Fatal(err)
	}
	before, err := st.CoreState("P0C3")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("P0C3 under default ATM: %.0f MHz\n", float64(before.Freq))

	// Fine-tune: reduce P0C3's CPM inserted delay step by step and let
	// the control loop convert the revealed margin into frequency.
	core, err := m.Core("P0C3")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nreduction  settled frequency")
	for r := 0; r <= 9; r++ {
		if err := m.ProgramCPM("P0C3", r); err != nil {
			log.Fatal(err)
		}
		st, err := m.Solve()
		if err != nil {
			log.Fatal(err)
		}
		cs, err := st.CoreState("P0C3")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%9d  %.0f MHz\n", r, float64(cs.Freq))
	}

	// But aggressive settings are only safe up to the core's limit:
	// probe beyond it and the run fails. The library's trial model
	// reproduces the paper's failure taxonomy.
	limit := core.Profile.DeterministicLimit(0) // idle limit
	fmt.Printf("\nP0C3 idle limit: %d steps of reduction\n", limit)

	// Restore the safe deployed configuration found by the test-time
	// stress procedure and show the final gain.
	dep, err := Deploy(m, DeployOptions{})
	if err != nil {
		log.Fatal(err)
	}
	cfg, _ := dep.Config("P0C3")
	fmt.Printf("deployed (stress-tested) config: reduction %d → %.0f MHz idle, %.0f MHz fully loaded\n",
		cfg.Reduction, float64(cfg.IdleFreq), float64(cfg.LoadedFreq))
	fmt.Printf("gain over the 4.2 GHz static margin: %+.1f%% (idle)\n",
		100*(float64(cfg.IdleFreq)/4200-1))
	fmt.Printf("whole-server speed differential exposed: %.0f MHz\n", dep.SpeedDifferentialMHz())

	// Output:
	// P0C3 under default ATM: 4569 MHz
	//
	// reduction  settled frequency
	//         0  4569 MHz
	//         1  4614 MHz
	//         2  4644 MHz
	//         3  4701 MHz
	//         4  4721 MHz
	//         5  4815 MHz
	//         6  4906 MHz
	//         7  4945 MHz
	//         8  5043 MHz
	//         9  5088 MHz
	//
	// P0C3 idle limit: 11 steps of reduction
	// deployed (stress-tested) config: reduction 6 → 4905 MHz idle, 4693 MHz fully loaded
	// gain over the 4.2 GHz static margin: +16.8% (idle)
	// whole-server speed differential exposed: 300 MHz
}

// Characterize a freshly "manufactured" chip: run the paper's full
// Sec. III-B methodology (idle → uBench → realistic workloads) against
// Monte-Carlo silicon rather than the paper's reference server,
// demonstrating that the procedure, not the calibration, is what
// exposes inter-core variation.
func Example_characterize() {
	seed := uint64(20260706)
	profile, err := GenerateSilicon(seed, GenerateOptions{})
	if err != nil {
		log.Fatal(err)
	}
	m, err := NewMachine(profile)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("characterizing generated server (seed %d): 2 chips × 8 cores\n\n", seed)

	rep, err := Characterize(m, CharactOptions{Trials: 10})
	if err != nil {
		log.Fatal(err)
	}

	t := &report.Table{
		Title:  "ATM reconfiguration limits (generated silicon)",
		Header: []string{"core", "preset", "idle", "uBench", "thread normal", "thread worst", "idle freq (MHz)", "tight dist"},
	}
	for _, c := range rep.Cores {
		core := profile.FindCore(c.Core)
		t.AddRow(c.Core,
			fmt.Sprintf("%d", core.PresetTaps),
			fmt.Sprintf("%d", c.Idle.Limit),
			fmt.Sprintf("%d", c.UBenchLimit),
			fmt.Sprintf("%d", c.ThreadNormal),
			fmt.Sprintf("%d", c.ThreadWorst),
			report.F(float64(c.IdleFreq), 0),
			fmt.Sprintf("%v", c.Idle.Tight()))
	}
	if err := t.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// The same structural findings as the paper emerge on fresh silicon:
	// limit ordering, robustness ranking, stressful applications.
	rank := rep.RobustnessRank()
	fmt.Printf("most vulnerable core: %s; most robust core: %s\n", rank[0], rank[len(rank)-1])

	perApp := map[string]float64{}
	for _, c := range rep.Cores {
		for app, rb := range c.AppRollbackMean {
			perApp[app] += rb
		}
	}
	// Walk the applications by name, so a tie goes to the first name.
	apps := make([]string, 0, len(perApp))
	for app := range perApp {
		apps = append(apps, app)
	}
	sort.Strings(apps)
	var worstApp string
	var worstSum float64
	for _, app := range apps {
		if sum := perApp[app]; sum > worstSum {
			worstApp, worstSum = app, sum
		}
	}
	fmt.Printf("most ATM-stressful application on this chip: %s (total rollback %.1f steps)\n", worstApp, worstSum)

	// Output:
	// characterizing generated server (seed 20260706): 2 chips × 8 cores
	//
	// ATM reconfiguration limits (generated silicon)
	// ==============================================
	// core  preset  idle  uBench  thread normal  thread worst  idle freq (MHz)  tight dist
	// ----  ------  ----  ------  -------------  ------------  ---------------  ----------
	// P0C0  8       6     6       6              4             5171             true
	// P0C1  15      1     0       0              0             4696             true
	// P0C2  13      3     3       3              3             4849             true
	// P0C3  18      3     3       3              1             4928             true
	// P0C4  14      3     2       1              0             4950             true
	// P0C5  11      3     0       0              0             4845             true
	// P0C6  15      7     6       6              6             5279             true
	// P0C7  14      7     7       7              7             5060             true
	// P1C0  10      1     1       1              1             4646             true
	// P1C1  10      4     2       2              1             4901             true
	// P1C2  14      5     3       2              0             4939             true
	// P1C3  15      5     4       4              2             4968             true
	// P1C4  7       3     3       2              0             4850             true
	// P1C5  12      2     2       1              0             4798             true
	// P1C6  15      5     4       3              2             4913             true
	// P1C7  7       1     1       1              1             4755             true
	//
	// most vulnerable core: P1C4; most robust core: P1C7
	// most ATM-stressful application on this chip: ferret (total rollback 19.0 steps)
}

// The paper's Sec. VII management scheme in action. Deploy fine-tuned
// configurations, calibrate the Eq. 1 frequency predictors and
// per-application performance predictors, then co-locate a
// latency-critical inference task with background jobs under each
// management scenario, including the balanced mode that throttles
// co-runners just enough to guarantee a 10% QoS improvement.
func Example_scheduling() {
	m := NewReferenceMachine()
	rep, err := Characterize(m, CharactOptions{})
	if err != nil {
		log.Fatal(err)
	}
	dep, err := Deploy(m, DeployOptions{})
	if err != nil {
		log.Fatal(err)
	}
	mgr, err := NewManager(m, dep, rep)
	if err != nil {
		log.Fatal(err)
	}

	// The calibrated predictors, the scheduler's planning inputs.
	fp := mgr.Preds.Freq["P0C0"]
	fmt.Printf("Eq. 1 predictor for P0C0: f = %.0f − %.2f·P  (R² %.4f)\n",
		fp.Fit.Intercept, fp.MHzPerWatt(), fp.Fit.R2)
	pp := mgr.Preds.Perf["squeezenet"]
	fmt.Printf("squeezenet performance slope: %.3f per GHz (R² %.4f)\n\n",
		pp.Fit.Slope*1000, pp.Fit.R2)

	crit, err := WorkloadByName("squeezenet")
	if err != nil {
		log.Fatal(err)
	}
	bg, err := WorkloadByName("lu_cb")
	if err != nil {
		log.Fatal(err)
	}
	pair := Pair{Critical: crit, Background: bg}

	t := &report.Table{
		Title: "squeezenet co-located with lu_cb on all sibling cores",
		Header: []string{"scenario", "critical core", "freq (MHz)", "latency (ms)",
			"improvement", "background setting", "chip power (W)"},
	}
	for _, sc := range []Scenario{
		ScenarioStaticMargin, ScenarioDefaultATM, ScenarioFineTunedUnmanaged,
		ScenarioManagedMax, ScenarioManagedBalanced,
	} {
		ev, err := mgr.Evaluate(sc, pair, 0.10)
		if err != nil {
			log.Fatal(err)
		}
		t.AddRow(sc.String(), ev.CriticalCore,
			report.F(float64(ev.CriticalFreq), 0),
			report.F(ev.CriticalLatencyMs, 1),
			report.Pct(ev.Improvement()),
			ev.BackgroundSetting,
			report.F(float64(ev.ChipPower), 1))
	}
	if err := t.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// The balanced mode plans a power budget from the predictors; show
	// the contract it guarantees.
	ev, err := mgr.Evaluate(ScenarioManagedBalanced, pair, 0.10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("balanced contract: ≥10%% improvement, planned chip-power budget %.1f W — met: %v (%.1f%%)\n",
		float64(ev.PowerBudget), ev.MeetsQoS, 100*ev.Improvement())

	// Output:
	// Eq. 1 predictor for P0C0: f = 5020 − 1.93·P  (R² 1.0000)
	// squeezenet performance slope: 0.223 per GHz (R² 1.0000)
	//
	// squeezenet co-located with lu_cb on all sibling cores
	// =====================================================
	// scenario              critical core  freq (MHz)  latency (ms)  improvement  background setting               chip power (W)
	// --------------------  -------------  ----------  ------------  -----------  -------------------------------  --------------
	// static-margin         P0C1           4200        80.0          0.0%         static 4.2 GHz                   129.8
	// default-atm           P0C6           4459        75.6          5.8%         default ATM, unthrottled         134.9
	// fine-tuned-unmanaged  P0C7           4544        74.2          7.8%         fine-tuned ATM, unthrottled      139.6
	// managed-max           P0C1           4917        68.9          16.1%        static 2.1 GHz (lowest p-state)  93.5
	// managed-balanced      P0C1           4826        70.1          14.1%        fine-tuned ATM                   139.5
	//
	// balanced contract: ≥10% improvement, planned chip-power budget 160.7 W — met: true (14.1%)
}

// The Sec. VII-A test-time deployment procedure. Run the worst-case
// battery (power virus, ISA sweep, and the synchronized issue-throttle
// voltage virus) against every core, find the limit configurations,
// and watch the control loop ride out the virus's di/dt noise in a
// cycle-approximate transient.
func Example_stresstest() {
	m := NewReferenceMachine()

	// The battery the procedure runs, in order.
	fmt.Println("test-time stress battery:")
	for _, mark := range workload.TestTimeSuite() {
		fmt.Printf("  %-13s Cdyn %.2f, stress %.2f, sync=%v\n",
			mark.Profile.Name, mark.Profile.CdynRel, mark.Profile.StressScore, mark.Synchronized)
	}
	virus := VoltageVirus()
	fmt.Printf("voltage virus recipe: issue 1/%d cycles, %d SMT threads/core, synchronized\n\n",
		virus.ThrottlePeriod, virus.ThreadsPerCore)

	// Deploy at the stress-test limit, and once more with a 2-step
	// safety rollback (the vendor option of Fig. 11).
	dep, err := Deploy(m, DeployOptions{})
	if err != nil {
		log.Fatal(err)
	}
	m2 := NewReferenceMachine()
	depSafe, err := Deploy(m2, DeployOptions{Rollback: 2})
	if err != nil {
		log.Fatal(err)
	}

	t := &report.Table{
		Title:  "Deployed configurations (Fig. 11)",
		Header: []string{"core", "stress limit", "idle MHz @limit", "idle MHz @rollback-2"},
		Note:   fmt.Sprintf("speed differential at the limit: %.0f MHz", dep.SpeedDifferentialMHz()),
	}
	for _, cfg := range dep.Configs {
		safe, _ := depSafe.Config(cfg.Core)
		t.AddRow(cfg.Core, fmt.Sprintf("%d", cfg.StressLimit),
			report.F(float64(cfg.IdleFreq), 0), report.F(float64(safe.IdleFreq), 0))
	}
	if err := t.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// Verify the paper's claim on the deployed machine: thread-worst /
	// stress-limit configurations sustain the virus.
	src := rng.New(7)
	failures := 0
	for _, core := range m.AllCores() {
		for i := 0; i < 20; i++ {
			res, err := m.RunStressmark(core.Profile.Label, virus, src.SplitIndex(core.Profile.Label, i))
			if err != nil {
				log.Fatal(err)
			}
			if !res.OK() {
				failures++
			}
		}
	}
	fmt.Printf("virus re-runs at deployed configs: %d/320 failures (expected 0)\n\n", failures)

	// Transient view: the per-core DPLL loops under chip-wide daxpy
	// load with virus-grade di/dt events.
	for _, core := range m.AllCores() {
		core.SetWorkload(workload.Daxpy)
	}
	res, err := m.Transient("P0", 3000, 1.0, rng.New(99))
	if err != nil {
		log.Fatal(err)
	}
	st, err := m.Solve()
	if err != nil {
		log.Fatal(err)
	}
	cs := st.Chips[0]
	fmt.Printf("transient under full daxpy load: %d control intervals, %d margin violations handled\n",
		len(res.Samples), res.Violations)
	fmt.Printf("chip: %.1f W, %.3f V, %.1f °C (envelope ≤70 °C: %v)\n",
		float64(cs.Power), float64(cs.Supply), float64(cs.TempC), cs.InBudget)
	for i, f := range res.MeanFreq {
		fmt.Printf("  %s loop mean %.0f MHz (analytic %.0f MHz)\n",
			cs.Cores[i].Label, float64(f), float64(cs.Cores[i].Freq))
	}

	// Output:
	// test-time stress battery:
	//   power-virus   Cdyn 1.10, stress 0.55, sync=false
	//   isa-suite     Cdyn 0.70, stress 0.88, sync=false
	//   voltage-virus Cdyn 1.05, stress 1.00, sync=true
	// voltage virus recipe: issue 1/128 cycles, 4 SMT threads/core, synchronized
	//
	// Deployed configurations (Fig. 11)
	// =================================
	// core  stress limit  idle MHz @limit  idle MHz @rollback-2
	// ----  ------------  ---------------  --------------------
	// P0C0  6             4912             4802
	// P0C1  6             4991             4751
	// P0C2  3             4747             4666
	// P0C3  6             4905             4720
	// P0C4  6             4910             4740
	// P0C5  5             4804             4701
	// P0C6  5             4832             4722
	// P0C7  2             4699             4603
	// P1C0  3             4799             4683
	// P1C1  3             4768             4646
	// P1C2  5             4850             4753
	// P1C3  3             4691             4638
	// P1C4  3             4784             4668
	// P1C5  2             4750             4619
	// P1C6  6             4889             4765
	// P1C7  2             4988             4604
	// note: speed differential at the limit: 300 MHz
	//
	// virus re-runs at deployed configs: 0/320 failures (expected 0)
	//
	// transient under full daxpy load: 3000 control intervals, 0 margin violations handled
	// chip: 165.8 W, 1.211 V, 71.4 °C (envelope ≤70 °C: false)
	//   P0C0 loop mean 4698 MHz (analytic 4699 MHz)
	//   P0C1 loop mean 4773 MHz (analytic 4775 MHz)
	//   P0C2 loop mean 4540 MHz (analytic 4541 MHz)
	//   P0C3 loop mean 4691 MHz (analytic 4693 MHz)
	//   P0C4 loop mean 4696 MHz (analytic 4698 MHz)
	//   P0C5 loop mean 4594 MHz (analytic 4596 MHz)
	//   P0C6 loop mean 4621 MHz (analytic 4623 MHz)
	//   P0C7 loop mean 4495 MHz (analytic 4496 MHz)
}

// The third ATM component the paper disables (Sec. II): the off-chip
// voltage controller that converts reclaimed timing margin into power
// savings instead of frequency. Both directions of the trade run on
// the same fine-tuned silicon, and the slowest-core restriction shows
// why the paper chose per-core overclocking.
func Example_undervolt() {
	// Deploy the fine-tuned configuration found by the stress-test
	// procedure.
	m := NewReferenceMachine()
	dep, err := Deploy(m, DeployOptions{})
	if err != nil {
		log.Fatal(err)
	}

	// Direction 1 (the paper's): overclocking. Margin becomes
	// per-core frequency; every core rides its own silicon.
	st, err := m.Solve()
	if err != nil {
		log.Fatal(err)
	}
	var fMin, fMax float64 = 1e9, 0
	for _, cs := range st.Chips[0].Cores {
		f := float64(cs.Freq)
		if f < fMin {
			fMin = f
		}
		if f > fMax {
			fMax = f
		}
	}
	fmt.Printf("overclocking (paper's mode): cores run %.0f–%.0f MHz at full Vdd, %.1f W chip\n",
		fMin, fMax, float64(st.Chips[0].Power))

	// Direction 2: undervolting at the 4.2 GHz target. One chip-wide
	// Vdd, limited by the slowest core.
	res, err := m.SolveUndervolt("P0", 4200)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("undervolting to 4.2 GHz: Vdd −%.0f mV (%.3f V on die), %.1f → %.1f W (−%s), limited by %s\n\n",
		res.VddReduction.Millivolts(), float64(res.Supply),
		float64(res.PowerBefore), float64(res.PowerAfter),
		report.Pct(res.SavingsFrac()), res.SlowestCore)

	// The same study across load levels and configurations.
	t := &report.Table{
		Title:  "Undervolting at the 4.2 GHz target",
		Header: []string{"CPM config", "load", "Vdd reduction (mV)", "savings", "limiting core"},
		Note:   "fine-tuning exposes more margin to convert; the slowest core caps the chip-wide Vdd",
	}
	for _, tuned := range []bool{false, true} {
		for _, loaded := range []bool{false, true} {
			m2 := NewReferenceMachine()
			name := "default ATM"
			if tuned {
				name = "fine-tuned"
				for _, cfg := range dep.Configs {
					if err := m2.ProgramCPM(cfg.Core, cfg.Reduction); err != nil {
						log.Fatal(err)
					}
				}
			}
			load := "idle"
			if loaded {
				load = "8×daxpy"
				for _, core := range m2.Chips[0].Cores {
					core.SetWorkload(workload.Daxpy)
				}
			}
			r, err := m2.SolveUndervolt("P0", 4200)
			if err != nil {
				log.Fatal(err)
			}
			t.AddRow(name, load, report.F(r.VddReduction.Millivolts(), 0),
				report.Pct(r.SavingsFrac()), r.SlowestCore)
		}
	}
	if err := t.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	fmt.Println("the asymmetry is the paper's point: undervolting is capped by the chip's worst core,")
	fmt.Println("while per-core overclocking lets every core exploit its own exposed speed.")

	// Output:
	// overclocking (paper's mode): cores run 4699–4991 MHz at full Vdd, 55.8 W chip
	// undervolting to 4.2 GHz: Vdd −97 mV (1.154 V on die), 55.8 → 48.3 W (−13.5%), limited by P0C7
	//
	// Undervolting at the 4.2 GHz target
	// ==================================
	// CPM config   load     Vdd reduction (mV)  savings  limiting core
	// -----------  -------  ------------------  -------  -------------
	// default ATM  idle     74                  10.4%    P0C3
	// default ATM  8×daxpy  39                  8.8%     P0C3
	// fine-tuned   idle     97                  13.5%    P0C7
	// fine-tuned   8×daxpy  62                  13.9%    P0C7
	// note: fine-tuning exposes more margin to convert; the slowest core caps the chip-wide Vdd
	//
	// the asymmetry is the paper's point: undervolting is capped by the chip's worst core,
	// while per-core overclocking lets every core exploit its own exposed speed.
}

// The management scheme on a dynamic workload. A Poisson stream of
// latency-critical inference jobs and background batch jobs arrives
// at chip P0 for two minutes; the same trace is replayed under the
// static baseline (with its stock ondemand governor), unmanaged
// fine-tuned ATM, and the paper's managed policy, showing that the
// Fig. 14 gains survive queueing, placement races and co-location
// churn. Setting SchedOptions.Trace to a NewTracer records a run's
// spans for Perfetto (Tracer.WriteJSON).
func Example_jobstream() {
	m := NewReferenceMachine()
	dep, err := Deploy(m, DeployOptions{})
	if err != nil {
		log.Fatal(err)
	}
	sim, err := NewJobSimulator(m, dep, "P0")
	if err != nil {
		log.Fatal(err)
	}

	horizonSec := 120.0
	trace, err := GenerateJobTrace(horizonSec, 11)
	if err != nil {
		log.Fatal(err)
	}
	nCrit, nBG := 0, 0
	for _, j := range trace {
		if j.Class.String() == "critical" {
			nCrit++
		} else {
			nBG++
		}
	}
	fmt.Printf("trace: %d jobs over %.0f s (%d critical, %d background)\n\n",
		len(trace), horizonSec, nCrit, nBG)

	t := &report.Table{
		Title: "Same trace, four policies",
		Header: []string{"policy", "crit mean latency (s)", "crit p95 (s)",
			"crit speedup", "energy/job (J)"},
		Note: "managed ATM: critical jobs on the fastest cores, co-runners throttled while they run",
	}
	for _, p := range []SchedPolicy{SchedStatic, SchedOndemand, SchedUnmanaged, SchedManaged} {
		res, err := sim.Run(trace, SchedOptions{Policy: p})
		if err != nil {
			log.Fatal(err)
		}
		var soj []float64
		for _, r := range res.Completed {
			if r.Class.String() == "critical" {
				soj = append(soj, r.Sojourn())
			}
		}
		sort.Float64s(soj)
		p95 := soj[len(soj)*95/100]
		t.AddRow(p.String(),
			report.F(res.CritLatency.Mean, 2),
			report.F(p95, 2),
			report.F(res.CritSpeedup, 3),
			report.F(res.EnergyPerJobJ, 0))
	}
	if err := t.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println("the steady-state Fig. 14 ladder — static < unmanaged < managed — holds under dynamics too.")

	// Output:
	// trace: 61 jobs over 120 s (10 critical, 51 background)
	//
	// Same trace, four policies
	// =========================
	// policy           crit mean latency (s)  crit p95 (s)  crit speedup  energy/job (J)
	// ---------------  ---------------------  ------------  ------------  --------------
	// static           2.33                   7.50          1.000         216
	// static-ondemand  2.33                   7.50          1.000         209
	// unmanaged-atm    2.05                   6.53          1.133         221
	// managed-atm      2.04                   6.52          1.146         221
	// note: managed ATM: critical jobs on the fastest cores, co-runners throttled while they run
	//
	// the steady-state Fig. 14 ladder — static < unmanaged < managed — holds under dynamics too.
}
