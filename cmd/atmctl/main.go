// Command atmctl drives the ATM fine-tuning library interactively:
// characterize a server, run the test-time deployment, schedule managed
// co-locations, sweep a core's CPM configuration, or watch the control
// loop's transient response.
//
// Usage:
//
//	atmctl characterize [-trials 10] [-seed 1]
//	atmctl tune [-rollback 0]
//	atmctl schedule -critical squeezenet -background lu_cb [-scenario managed-balanced] [-qos 0.10]
//	atmctl sweep -core P0C3
//	atmctl fleet -kind montecarlo -n 32 -workers 8 [-cache-dir .fleet]
//	atmctl dc -racks 2 -chassis 4 -chips-per-chassis 8 -workers 8 [-json] [-cache-dir .dc]
//	atmctl lifetime [-years 3] [-seed 1] [-sentinel-off] [-cache-dir .fleet]
//	atmctl transient [-chip P0] [-steps 2000] [-stress] [-csv trace.csv]
//	atmctl bench [-set kernel,e2e,fleet,dc,lifetime] [-quick] [-out BENCH_core.json] [-baseline BENCH_core.json]
//	             [-cpuprofile cpu.pb.gz] [-memprofile mem.pb.gz] [-trace trace.out]
//	atmctl status
//
// characterize, tune, schedule, sweep, fleet, dc and lifetime accept
// -metrics-out and -trace-out to export the run's deterministic
// metrics snapshot and Perfetto trace.
//
// fleet, dc and lifetime keep each finished job in -cache-dir: rerun
// the same command on the same directory and it serves those jobs and
// runs only the rest, so a killed run finishes with the output of an
// uninterrupted one.
//
// Add -generated <seed> to any subcommand to run on Monte-Carlo silicon
// instead of the paper-calibrated reference server.
//
// Exit codes: 0 success; 1 hard failure; 2 usage error; 3 completed
// with degraded results the operator must not miss — quarantined
// cores or chips, failed fleet jobs, datacenter budget violations, or
// an UNSAFE lifetime verdict — announced in a one-line stderr summary.
package main

import (
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	atm "repro"
	"repro/internal/chip"
	"repro/internal/fleet"
	"repro/internal/manage"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/units"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run dispatches a subcommand and maps its outcome to the process exit
// code: 0 success, 1 hard failure, 2 usage, 3 partial (the command
// completed and rendered its results, but something the operator must
// not miss degraded — quarantined cores, failed jobs, an UNSAFE
// verdict). Scripts and CI branch on the distinction.
func run(argv []string) int {
	if len(argv) < 1 {
		usage()
		return 2
	}
	cmd, args := argv[0], argv[1:]
	var err error
	switch cmd {
	case "characterize":
		err = cmdCharacterize(args)
	case "tune":
		err = cmdTune(args)
	case "schedule":
		err = cmdSchedule(args)
	case "sweep":
		err = cmdSweep(args)
	case "fleet":
		err = cmdFleet(args)
	case "dc":
		err = cmdDC(args)
	case "lifetime":
		err = cmdLifetime(args)
	case "transient":
		err = cmdTransient(args)
	case "bench":
		err = cmdBench(args)
	case "status":
		err = cmdStatus(args)
	default:
		usage()
		return 2
	}
	if err == nil {
		return 0
	}
	// The FlagSet already printed -h help or the parse diagnostic.
	var ue usageError
	if errors.Is(err, flag.ErrHelp) || errors.As(err, &ue) {
		return 2
	}
	fmt.Fprintln(os.Stderr, "atmctl:", err)
	var pe partialError
	if errors.As(err, &pe) {
		return 3
	}
	return 1
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: atmctl <characterize|tune|schedule|sweep|fleet|dc|lifetime|transient|bench|status> [flags]
run "atmctl <subcommand> -h" for flags`)
}

// usageError marks a bad invocation (exit 2). The FlagSet has already
// printed the diagnostic, so run only maps the code.
type usageError struct{ err error }

func (e usageError) Error() string { return e.err.Error() }
func (e usageError) Unwrap() error { return e.err }

// parseFlags parses with the usage classification attached.
func parseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	return nil
}

// badFlag reports a flag value the FlagSet parsed but the command
// cannot use, the way the FlagSet reports a parse error: the
// diagnostic, then the flag summary, then exit 2.
func badFlag(fs *flag.FlagSet, format string, a ...any) error {
	err := fmt.Errorf(format, a...)
	fmt.Fprintln(os.Stderr, err)
	fs.Usage()
	return usageError{err}
}

// partialError marks a run whose results rendered fine but carried a
// degraded outcome (exit 3).
type partialError struct{ msg string }

func (e partialError) Error() string { return e.msg }

func partialf(format string, a ...any) error {
	return partialError{msg: fmt.Sprintf(format, a...)}
}

func cmdStatus(args []string) error {
	fs := flag.NewFlagSet("status", flag.ContinueOnError)
	build := machineFlag(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	m, err := build()
	if err != nil {
		return err
	}
	st, err := m.Solve()
	if err != nil {
		return err
	}
	for _, cs := range st.Chips {
		t := &report.Table{
			Title: fmt.Sprintf("%s: %.1f W, %.3f V (drop %.1f mV), %.1f °C, in budget: %v",
				cs.Label, float64(cs.Power), float64(cs.Supply),
				cs.DCDrop.Millivolts(), float64(cs.TempC), cs.InBudget),
			Header: []string{"core", "mode", "reduction", "workload", "freq (MHz)", "power (W)"},
		}
		for _, c := range cs.Cores {
			gate := ""
			if c.Gated {
				gate = " (gated)"
			}
			t.AddRow(c.Label, c.Mode.String()+gate, fmt.Sprintf("%d", c.Reduction),
				c.Workload, report.F(float64(c.Freq), 0), report.F(float64(c.Power), 2))
		}
		if err := t.Render(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

// machineFlag adds the -generated flag and returns a machine builder
// routed through the shared platform recipe, so a CLI invocation and a
// fleet job spec materialize byte-identical servers.
func machineFlag(fs *flag.FlagSet) func() (*atm.Machine, error) {
	seed := fs.Uint64("generated", 0, "use Monte-Carlo silicon with this seed (0 = paper reference)")
	return func() (*atm.Machine, error) {
		srv, err := atm.BuildServer(atm.PlatformSpec{SiliconSeed: *seed})
		if err != nil {
			return nil, err
		}
		return srv.Machine, nil
	}
}

// faultFlag adds the -fault-profile and -fault-seed flags. check
// reports a spec that does not parse as a usage error, before any
// work; arm installs the requested faults on a machine and returns nil
// when none were requested, so fault-free runs take exactly the code
// path (and RNG streams) they did before this flag existed.
func faultFlag(fs *flag.FlagSet) (check func() error, arm func(*atm.Machine) (*atm.FaultInjector, error)) {
	profile := fs.String("fault-profile", "",
		"inject deterministic faults: preset ("+strings.Join(atm.FaultPresetNames(), ", ")+") or key=value list")
	seed := fs.Uint64("fault-seed", 1, "fault injection seed")
	check = func() error {
		if _, err := atm.ParseFaultProfile(*profile); err != nil {
			return badFlag(fs, "%v", err)
		}
		return nil
	}
	arm = func(m *atm.Machine) (*atm.FaultInjector, error) {
		return atm.ArmFaults(m, *profile, *seed)
	}
	return check, arm
}

// obsFlag adds the -metrics-out and -trace-out flags. The returned
// attach hook builds the registry/tracer (nil when the matching flag is
// unset, keeping the instrumented hot paths free) and wires fault hit
// counters; the returned flush writes the export files.
func obsFlag(fs *flag.FlagSet) (attach func(*atm.FaultInjector) (*atm.MetricsRegistry, *atm.Tracer), flush func() error) {
	metricsOut := fs.String("metrics-out", "", "write a deterministic JSON metrics snapshot to this file")
	traceOut := fs.String("trace-out", "", "write a Chrome trace_event JSON file (open in Perfetto) to this file")
	var reg *atm.MetricsRegistry
	var tr *atm.Tracer
	attach = func(inj *atm.FaultInjector) (*atm.MetricsRegistry, *atm.Tracer) {
		if *metricsOut != "" {
			reg = atm.NewMetricsRegistry()
			if inj != nil {
				inj.Observe(reg)
			}
		}
		if *traceOut != "" {
			tr = atm.NewTracer()
		}
		return reg, tr
	}
	flush = func() error {
		if reg != nil {
			if err := writeFile(*metricsOut, func(f *os.File) error { return reg.WriteJSON(f) }); err != nil {
				return err
			}
		}
		if tr != nil {
			if err := writeFile(*traceOut, func(f *os.File) error { return tr.WriteJSON(f) }); err != nil {
				return err
			}
		}
		return nil
	}
	return attach, flush
}

// writeFile creates path and streams write into it, surfacing both the
// write and close errors.
func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		return errors.Join(err, f.Close())
	}
	return f.Close()
}

func cmdCharacterize(args []string) error {
	fs := flag.NewFlagSet("characterize", flag.ContinueOnError)
	trials := fs.Int("trials", 10, "repeated trials per (core, workload)")
	seed := fs.Uint64("seed", 1, "trial seed")
	build := machineFlag(fs)
	check, arm := faultFlag(fs)
	attach, flush := obsFlag(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *trials < 0 {
		return badFlag(fs, "-trials %d is negative", *trials)
	}
	if err := check(); err != nil {
		return err
	}
	m, err := build()
	if err != nil {
		return err
	}
	inj, err := arm(m)
	if err != nil {
		return err
	}
	reg, tr := attach(inj)
	rep, err := atm.Characterize(m, atm.CharactOptions{Trials: *trials, Seed: *seed, Obs: reg, Trace: tr})
	if err != nil {
		return err
	}
	if err := flush(); err != nil {
		return err
	}
	t := &report.Table{
		Title:  "ATM reconfiguration limits",
		Header: []string{"core", "idle", "uBench", "thread normal", "thread worst", "idle freq (MHz)"},
	}
	if inj != nil {
		t.Header = append(t.Header, "status")
	}
	quarantined := 0
	for _, c := range rep.Cores {
		row := []string{c.Core,
			fmt.Sprintf("%d", c.Idle.Limit), fmt.Sprintf("%d", c.UBenchLimit),
			fmt.Sprintf("%d", c.ThreadNormal), fmt.Sprintf("%d", c.ThreadWorst),
			report.F(float64(c.IdleFreq), 0)}
		if inj != nil {
			status := "ok"
			if c.Quarantined {
				status = "quarantined"
				quarantined++
			}
			row = append(row, status)
		}
		t.AddRow(row...)
	}
	if inj != nil {
		t.Note = fmt.Sprintf("faults armed: %s (seed %d); %d core(s) quarantined",
			inj.Profile(), inj.Seed(), quarantined)
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	if quarantined > 0 {
		return partialf("characterize: %d core(s) quarantined", quarantined)
	}
	return nil
}

func cmdTune(args []string) error {
	fs := flag.NewFlagSet("tune", flag.ContinueOnError)
	rollback := fs.Int("rollback", 0, "safety steps below the stress-test limit")
	build := machineFlag(fs)
	check, arm := faultFlag(fs)
	attach, flush := obsFlag(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *rollback < 0 {
		return badFlag(fs, "-rollback %d is negative", *rollback)
	}
	if err := check(); err != nil {
		return err
	}
	m, err := build()
	if err != nil {
		return err
	}
	inj, err := arm(m)
	if err != nil {
		return err
	}
	reg, tr := attach(inj)
	dep, err := atm.Deploy(m, atm.DeployOptions{Rollback: *rollback, Obs: reg, Trace: tr})
	if err != nil {
		return err
	}
	if err := flush(); err != nil {
		return err
	}
	t := &report.Table{
		Title:  "Test-time stress-test deployment",
		Header: []string{"core", "stress limit", "deployed reduction", "idle freq (MHz)", "loaded freq (MHz)"},
		Note:   fmt.Sprintf("inter-core speed differential: %.0f MHz", dep.SpeedDifferentialMHz()),
	}
	if inj != nil {
		t.Header = append(t.Header, "mode")
	}
	for _, cfg := range dep.Configs {
		row := []string{cfg.Core, fmt.Sprintf("%d", cfg.StressLimit), fmt.Sprintf("%d", cfg.Reduction),
			report.F(float64(cfg.IdleFreq), 0), report.F(float64(cfg.LoadedFreq), 0)}
		if inj != nil {
			mode := "ATM"
			if cfg.Quarantined {
				mode = "static (quarantined)"
			}
			row = append(row, mode)
		}
		t.AddRow(row...)
	}
	if inj != nil {
		t.Note += fmt.Sprintf("; faults armed: %s (seed %d); quarantined: %d",
			inj.Profile(), inj.Seed(), len(dep.Quarantined()))
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	if q := len(dep.Quarantined()); q > 0 {
		return partialf("tune: %d core(s) quarantined", q)
	}
	return nil
}

func cmdSchedule(args []string) error {
	fs := flag.NewFlagSet("schedule", flag.ContinueOnError)
	critName := fs.String("critical", "squeezenet", "critical (latency-sensitive) workload")
	bgName := fs.String("background", "lu_cb", "background co-runner")
	scen := fs.String("scenario", "managed-balanced",
		"static-margin | default-atm | fine-tuned-unmanaged | managed-max | managed-balanced")
	qos := fs.Float64("qos", 0.10, "balanced-mode improvement target over static margin")
	governor := fs.String("governor", "default", "default | conservative | aggressive")
	build := machineFlag(fs)
	attach, flush := obsFlag(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	crit, err := atm.WorkloadByName(*critName)
	if err != nil {
		return badFlag(fs, "-critical: %v", err)
	}
	bg, err := atm.WorkloadByName(*bgName)
	if err != nil {
		return badFlag(fs, "-background: %v", err)
	}
	pair := atm.Pair{Critical: crit, Background: bg}
	if err := pair.Valid(); err != nil {
		return badFlag(fs, "-critical %s -background %s: %v", *critName, *bgName, err)
	}
	scenario, err := manage.ScenarioByName(*scen)
	if err != nil {
		return badFlag(fs, "-scenario: %v", err)
	}
	var gov atm.Governor
	switch *governor {
	case "default":
		gov = atm.GovernorDefault
	case "conservative":
		gov = atm.GovernorConservative
	case "aggressive":
		gov = atm.GovernorAggressive
	default:
		return badFlag(fs, "-governor %q: want default, conservative or aggressive", *governor)
	}
	switch {
	case !(*qos >= 0) || math.IsInf(*qos, 1):
		return badFlag(fs, "-qos %v: want a finite, non-negative target", *qos)
	case scenario == manage.ScenarioManagedBalanced && !(*qos > 0):
		return badFlag(fs, "-qos %v: %s needs a positive target", *qos, scenario)
	}
	m, err := build()
	if err != nil {
		return err
	}
	reg, tr := attach(nil)
	rep, err := atm.Characterize(m, atm.CharactOptions{Obs: reg, Trace: tr})
	if err != nil {
		return err
	}
	dep, err := atm.Deploy(m, atm.DeployOptions{Obs: reg, Trace: tr})
	if err != nil {
		return err
	}
	mgr, err := atm.NewManager(m, dep, rep)
	if err != nil {
		return err
	}
	mgr.Obs, mgr.Trace, mgr.Governor = reg, tr, gov
	ev, err := mgr.Evaluate(scenario, pair, *qos)
	if err != nil {
		return err
	}
	if err := flush(); err != nil {
		return err
	}
	t := &report.Table{Title: fmt.Sprintf("Schedule %s under %s", ev.Pair.Label(), ev.Scenario)}
	t.Header = []string{"metric", "value"}
	t.AddRow("critical core", ev.CriticalCore)
	t.AddRow("critical frequency", fmt.Sprintf("%.0f MHz", float64(ev.CriticalFreq)))
	t.AddRow("critical improvement", report.Pct(ev.Improvement()))
	if ev.CriticalLatencyMs > 0 {
		t.AddRow("critical latency", fmt.Sprintf("%.1f ms", ev.CriticalLatencyMs))
	}
	t.AddRow("background setting", ev.BackgroundSetting)
	t.AddRow("background performance", report.Pct(ev.BackgroundPerf-1))
	t.AddRow("chip power", fmt.Sprintf("%.1f W", float64(ev.ChipPower)))
	t.AddRow("supply", fmt.Sprintf("%.3f V", float64(ev.Supply)))
	if ev.QoSTarget > 0 {
		t.AddRow("power budget", fmt.Sprintf("%.1f W", float64(ev.PowerBudget)))
		t.AddRow("meets QoS", fmt.Sprintf("%v (target %s)", ev.MeetsQoS, report.Pct(ev.QoSTarget)))
	}
	return t.Render(os.Stdout)
}

func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	label := fs.String("core", "P0C3", "core to sweep")
	build := machineFlag(fs)
	attach, flush := obsFlag(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	m, err := build()
	if err != nil {
		return err
	}
	core, err := m.Core(*label)
	if err != nil {
		return badFlag(fs, "-core: %v", err)
	}
	reg, tr := attach(nil)
	st, err := m.Solve()
	if err != nil {
		return err
	}
	cs, err := st.ChipState((*label)[:2])
	if err != nil {
		return err
	}
	t := &report.Table{
		Title:  fmt.Sprintf("Frequency vs CPM delay reduction — %s (idle supply %.3f V)", *label, float64(cs.Supply)),
		Header: []string{"reduction", "settled freq (MHz)", "guard (ps)"},
	}
	rows := reg.Counter("atmctl_sweep_rows_total", "core", *label)
	sp := tr.Begin("sweep", "reduction-sweep", *label)
	for r := 0; r <= core.Profile.MaxReduction(); r++ {
		f, err := core.Profile.SettledFreq(r, cs.Supply)
		if err != nil {
			return err
		}
		g, err := core.Profile.GuardPs(r)
		if err != nil {
			return err
		}
		rows.Inc()
		t.AddRow(fmt.Sprintf("%d", r), report.F(float64(f), 0), report.F(float64(g), 1))
	}
	sp.Arg("core", *label).End()
	if err := flush(); err != nil {
		return err
	}
	return t.Render(os.Stdout)
}

func cmdFleet(args []string) error {
	fs := flag.NewFlagSet("fleet", flag.ContinueOnError)
	kind := fs.String("kind", "montecarlo", "campaign kind: montecarlo | characterize | tune")
	n := fs.Int("n", 8, "number of jobs (generated servers)")
	workers := fs.Int("workers", 4, "worker pool bound (output is identical for every value)")
	start := fs.Uint64("seed", 1, "first silicon seed of the sweep")
	trials := fs.Int("trials", 0, "characterize: trials per (core, workload); 0 = default")
	rollback := fs.Int("rollback", 0, "tune: safety steps below the stress-test limit")
	faultProfile := fs.String("fault-profile", "",
		"characterize/tune: arm this fault profile on every job (per-job seeds are independent rng splits)")
	faultSeed := fs.Uint64("fault-seed", 1, "base fault seed the per-job streams split from")
	cacheDir := fs.String("cache-dir", "", "content-addressed result cache directory")
	jsonOut := fs.Bool("json", false, "emit the merged campaign result as JSON instead of a table")
	timing := fs.Bool("timing", false,
		"report per-job wall time on stderr (provenance only — the merged stdout output is unchanged)")
	attach, flush := obsFlag(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	switch {
	case *n < 1:
		return badFlag(fs, "-n %d: want at least one job", *n)
	case *workers < 1:
		return badFlag(fs, "-workers %d: want at least one worker", *workers)
	case *trials < 0:
		return badFlag(fs, "-trials %d is negative", *trials)
	case *rollback < 0:
		return badFlag(fs, "-rollback %d is negative", *rollback)
	}
	if err := fleet.CheckSeedRange("-seed", *start, *n); err != nil {
		return badFlag(fs, "%v", err)
	}
	if _, err := atm.ParseFaultProfile(*faultProfile); err != nil {
		return badFlag(fs, "%v", err)
	}

	var camp *atm.FleetCampaign
	switch *kind {
	case "montecarlo":
		if *faultProfile != "" {
			return badFlag(fs, "fleet: -fault-profile applies to characterize and tune campaigns")
		}
		camp = atm.MonteCarloCampaign(*n, *start)
	case "characterize":
		camp = atm.CharacterizeCampaign(*n, *start, *trials, *faultProfile, *faultSeed)
	case "tune":
		camp = atm.TuneCampaign(*n, *start, *rollback, *faultProfile, *faultSeed)
	default:
		return badFlag(fs, "fleet: unknown kind %q", *kind)
	}

	reg, tr := attach(nil)
	opts := atm.FleetOptions{
		Workers:  *workers,
		CacheDir: *cacheDir,
		Obs:      reg,
		Trace:    tr,
	}
	if *timing {
		// The fleet engine is in detflow scope and never reads the wall
		// clock itself; the timing clock is injected from out here.
		opts.Clock = func() int64 { return time.Now().UnixNano() }
	}
	res, err := atm.RunCampaign(camp, opts)
	if err != nil {
		return err
	}
	if err := flush(); err != nil {
		return err
	}
	// Provenance goes to stderr: stdout carries only the canonical
	// merged view, so it byte-matches across worker counts, cache
	// hits, and reruns after a kill.
	fmt.Fprintf(os.Stderr, "fleet: campaign %s: %d job(s), %d cached, %d failed\n",
		camp.Name, len(res.Results), res.CachedCount(), len(res.Failed()))
	if *timing {
		var total int64
		for _, r := range res.Results {
			total += r.WallNS
			fmt.Fprintf(os.Stderr, "fleet: timing: %s %.3fms\n", r.JobID, float64(r.WallNS)/1e6)
		}
		fmt.Fprintf(os.Stderr, "fleet: timing: total %.3fms across %d job(s)\n",
			float64(total)/1e6, len(res.Results))
	}

	if *jsonOut {
		if err := res.WriteJSON(os.Stdout); err != nil {
			return err
		}
	} else if err := renderFleet(camp, res); err != nil {
		return err
	}
	quarantined := 0
	for _, r := range res.Results {
		n, err := quarantinedCores(r)
		if err != nil {
			return err
		}
		quarantined += n
	}
	switch failed := res.Failed(); {
	case len(failed) > 0:
		return partialf("fleet: %d job(s) failed: %v", len(failed), failed)
	case quarantined > 0:
		return partialf("fleet: %d core(s) quarantined", quarantined)
	}
	return nil
}

// quarantinedCores counts the cores a finished tune or characterize
// job quarantined, from its payload. Other kinds quarantine none.
func quarantinedCores(r fleet.Result) (int, error) {
	if r.Err != "" {
		return 0, nil
	}
	n := 0
	switch r.Kind {
	case atm.FleetTune:
		d, err := r.Tune()
		if err != nil {
			return 0, err
		}
		for _, cfg := range d.Configs {
			if cfg.Quarantined {
				n++
			}
		}
	case atm.FleetCharacterize:
		d, err := r.Characterize()
		if err != nil {
			return 0, err
		}
		for _, row := range d.Rows {
			if row.Quarantined {
				n++
			}
		}
	}
	return n, nil
}

// renderFleet prints one row per job, with kind-specific columns.
func renderFleet(camp *atm.FleetCampaign, res *atm.FleetResult) error {
	t := &report.Table{Title: fmt.Sprintf("Fleet campaign %s", camp.Name)}
	switch camp.Jobs[0].Kind {
	case atm.FleetMonteCarlo:
		t.Header = []string{"seed", "idle-limit spread", "speed differential (MHz)", "max idle freq (MHz)"}
		for _, r := range res.Results {
			if r.Err != "" {
				t.AddRow(r.JobID, "failed", r.Err, "")
				continue
			}
			d, err := r.MonteCarlo()
			if err != nil {
				return err
			}
			t.AddRow(fmt.Sprintf("%d", d.SiliconSeed),
				fmt.Sprintf("%d–%d", d.IdleLimitLo, d.IdleLimitHi),
				report.F(d.SpeedDiffMHz, 0), report.F(d.MaxIdleFreqMHz, 0))
		}
	case atm.FleetTune:
		t.Header = []string{"seed", "speed differential (MHz)", "min reduction", "max reduction", "quarantined"}
		for _, r := range res.Results {
			if r.Err != "" {
				t.AddRow(r.JobID, "failed", r.Err, "", "")
				continue
			}
			d, err := r.Tune()
			if err != nil {
				return err
			}
			lo, hi, quarantined := 1<<30, 0, 0
			for _, cfg := range d.Configs {
				if cfg.Reduction < lo {
					lo = cfg.Reduction
				}
				if cfg.Reduction > hi {
					hi = cfg.Reduction
				}
				if cfg.Quarantined {
					quarantined++
				}
			}
			t.AddRow(fmt.Sprintf("%d", d.SiliconSeed), report.F(d.SpeedDiffMHz, 0),
				fmt.Sprintf("%d", lo), fmt.Sprintf("%d", hi), fmt.Sprintf("%d", quarantined))
		}
	case atm.FleetCharacterize:
		t.Header = []string{"seed", "idle limits", "thread-worst limits", "quarantined"}
		for _, r := range res.Results {
			if r.Err != "" {
				t.AddRow(r.JobID, "failed", r.Err, "")
				continue
			}
			d, err := r.Characterize()
			if err != nil {
				return err
			}
			idleLo, idleHi, worstLo, worstHi, quarantined := 1<<30, 0, 1<<30, 0, 0
			for _, row := range d.Rows {
				if row.Quarantined {
					quarantined++
					continue
				}
				if row.Idle < idleLo {
					idleLo = row.Idle
				}
				if row.Idle > idleHi {
					idleHi = row.Idle
				}
				if row.Worst < worstLo {
					worstLo = row.Worst
				}
				if row.Worst > worstHi {
					worstHi = row.Worst
				}
			}
			// With every core quarantined no limit was found, and the
			// ranges would print their search start values.
			idle, worst := "-", "-"
			if quarantined < len(d.Rows) {
				idle, worst = fmt.Sprintf("%d–%d", idleLo, idleHi), fmt.Sprintf("%d–%d", worstLo, worstHi)
			}
			t.AddRow(fmt.Sprintf("%d", d.SiliconSeed), idle, worst, fmt.Sprintf("%d", quarantined))
		}
	}
	return t.Render(os.Stdout)
}

func cmdLifetime(args []string) error {
	fs := flag.NewFlagSet("lifetime", flag.ContinueOnError)
	years := fs.Int("years", 3, "simulated horizon in years")
	seed := fs.Uint64("seed", 1, "master seed (drift, ambient, trials, re-tunes); job i uses seed+i")
	n := fs.Int("n", 1, "number of servers to age")
	silStart := fs.Uint64("silicon-start", 0, "first silicon seed (0 = paper reference server)")
	workers := fs.Int("workers", 4, "fleet worker bound (output is identical for every value)")
	sentinelOff := fs.Bool("sentinel-off", false, "disable the margin sentinel: the control arm that shows unsupervised drift")
	cacheDir := fs.String("cache-dir", "", "content-addressed result cache directory")
	jsonOut := fs.Bool("json", false, "emit the merged campaign result as JSON instead of tables")
	attach, flush := obsFlag(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *years < 1 {
		return badFlag(fs, "-years %d: want at least one year", *years)
	}
	if *n < 1 {
		return badFlag(fs, "-n %d: want at least one server", *n)
	}
	if *workers < 1 {
		return badFlag(fs, "-workers %d: want at least one worker", *workers)
	}
	if err := fleet.CheckSeedRange("-seed", *seed, *n); err != nil {
		return badFlag(fs, "%v", err)
	}
	if err := fleet.CheckSeedRange("-silicon-start", *silStart, *n); err != nil {
		return badFlag(fs, "%v", err)
	}

	// The runs are hermetic fleet jobs: cached, kill-safe, and merged in
	// canonical order, so a 3-year simulation interrupted mid-campaign
	// and rerun on the same -cache-dir does not replay finished servers.
	camp := &atm.FleetCampaign{Name: fmt.Sprintf("lifetime-n%d-y%d-s%d", *n, *years, *seed)}
	if *sentinelOff {
		camp.Name += "-nosentinel"
	}
	for i := 0; i < *n; i++ {
		camp.Jobs = append(camp.Jobs, atm.FleetJob{
			ID:          fmt.Sprintf("lifetime-%04d", i),
			Kind:        atm.FleetLifetime,
			SiliconSeed: *silStart + uint64(i),
			Seed:        *seed + uint64(i),
			Years:       *years,
			SentinelOff: *sentinelOff,
		})
	}

	reg, tr := attach(nil)
	res, err := atm.RunCampaign(camp, atm.FleetOptions{
		Workers:  *workers,
		CacheDir: *cacheDir,
		Obs:      reg,
		Trace:    tr,
	})
	if err != nil {
		return err
	}
	if err := flush(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "lifetime: campaign %s: %d job(s), %d cached, %d failed\n",
		camp.Name, len(res.Results), res.CachedCount(), len(res.Failed()))

	if *jsonOut {
		if err := res.WriteJSON(os.Stdout); err != nil {
			return err
		}
	} else if err := renderLifetime(res); err != nil {
		return err
	}

	unsafe, quarantined := 0, 0
	for _, r := range res.Results {
		if r.Err != "" {
			continue
		}
		d, err := r.Lifetime()
		if err != nil {
			return err
		}
		if !d.Lifetime.Safe {
			unsafe++
		}
		quarantined += d.Lifetime.Quarantines
	}
	switch failed := res.Failed(); {
	case len(failed) > 0:
		return partialf("lifetime: %d job(s) failed: %v", len(failed), failed)
	case unsafe > 0:
		return partialf("lifetime: %d server(s) UNSAFE over %d year(s)", unsafe, *years)
	case quarantined > 0:
		return partialf("lifetime: %d core(s) quarantined", quarantined)
	}
	return nil
}

// The rendered timeline shows every sentinel intervention (there are
// at most a ladder's worth per core) but caps the timing-failure
// stream, which a sentinel-off run floods; the summary counts stay
// exact either way.
const failureRows = 16

// renderLifetime prints the campaign verdict table, then each server's
// core journeys and intervention/failure timeline.
func renderLifetime(res *atm.FleetResult) error {
	sum := &report.Table{
		Title: "Lifetime drift simulation",
		Header: []string{"job", "silicon", "verdict", "trials", "failures",
			"step-backs", "retunes", "statics", "quarantined"},
	}
	details := make([]*atm.LifetimeResult, 0, len(res.Results))
	for _, r := range res.Results {
		if r.Err != "" {
			sum.AddRow(r.JobID, "", "failed: "+r.Err, "", "", "", "", "", "")
			continue
		}
		d, err := r.Lifetime()
		if err != nil {
			return err
		}
		lt := d.Lifetime
		sum.AddRow(r.JobID, fmt.Sprintf("%d", d.SiliconSeed), lt.Verdict(),
			fmt.Sprintf("%d", lt.Trials), fmt.Sprintf("%d", lt.Failures),
			fmt.Sprintf("%d", lt.StepBacks), fmt.Sprintf("%d", lt.Retunes),
			fmt.Sprintf("%d", lt.Statics), fmt.Sprintf("%d", lt.Quarantines))
		details = append(details, lt)
	}
	if err := sum.Render(os.Stdout); err != nil {
		return err
	}

	for _, lt := range details {
		cores := &report.Table{
			Title: fmt.Sprintf("Core journeys over %d year(s) (%d epochs)", lt.Years, lt.Epochs),
			Header: []string{"core", "reduction", "margin (σ)", "aging",
				"failures", "step-backs", "retunes", "state"},
		}
		for _, c := range lt.Cores {
			state := "atm"
			switch {
			case c.Quarantined:
				state = "quarantined"
			case c.Static:
				state = "static"
			}
			cores.AddRow(c.Core,
				fmt.Sprintf("%d → %d", c.StartReduction, c.EndReduction),
				fmt.Sprintf("%.2f → %.2f", c.StartMargin, c.EndMargin),
				report.Pct(c.AgeFrac), fmt.Sprintf("%d", c.Failures),
				fmt.Sprintf("%d", c.StepBacks), fmt.Sprintf("%d", c.Retunes), state)
		}
		if err := cores.Render(os.Stdout); err != nil {
			return err
		}
		if len(lt.Timeline) == 0 {
			continue
		}
		tl := &report.Table{
			Title:  "Timeline",
			Header: []string{"epoch", "day", "core", "event", "reduction", "detail"},
		}
		failShown, failSkipped := 0, 0
		for _, ev := range lt.Timeline {
			if ev.Kind == atm.LifetimeEventFailure {
				if failShown == failureRows {
					failSkipped++
					continue
				}
				failShown++
			}
			tl.AddRow(fmt.Sprintf("%d", ev.Epoch), fmt.Sprintf("%.1f", ev.Hours/24),
				ev.Core, ev.Kind, fmt.Sprintf("%d", ev.Reduction), ev.Detail)
		}
		if failSkipped > 0 || lt.TimelineTruncated {
			note := ""
			if failSkipped > 0 {
				note = fmt.Sprintf("… %d more recorded failure(s)", failSkipped)
			}
			if lt.TimelineTruncated {
				if note != "" {
					note += "; "
				}
				note += "recording capped, counts above are exact"
			}
			tl.Note = note
		}
		if err := tl.Render(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

// maxTransientSteps bounds transient -steps. Machine.Transient keeps
// every sample: a 40 B header and a 64 B window of one frequency array
// for an 8-core chip, about 104 B per interval on the reference server,
// so 10^6 intervals hold about 104 MB before the table prints. Its
// allocation count does not grow with the run.
const maxTransientSteps = 1_000_000

func cmdTransient(args []string) error {
	fs := flag.NewFlagSet("transient", flag.ContinueOnError)
	chipLabel := fs.String("chip", "P0", "chip to step")
	steps := fs.Int("steps", 2000, "control intervals")
	stress := fs.Bool("stress", false, "run x264 on every core instead of idle")
	seed := fs.Uint64("seed", 1, "noise seed")
	csvPath := fs.String("csv", "", "write the full telemetry trace to this file")
	build := machineFlag(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	switch {
	case *steps < 1:
		return badFlag(fs, "-steps %d: want at least one control interval", *steps)
	case *steps > maxTransientSteps:
		return badFlag(fs, "-steps %d: above the %d-interval limit", *steps, maxTransientSteps)
	}
	m, err := build()
	if err != nil {
		return err
	}
	if !slices.ContainsFunc(m.Chips, func(c *chip.Chip) bool { return c.Profile.Label == *chipLabel }) {
		return badFlag(fs, "-chip: no chip %q", *chipLabel)
	}
	if *stress {
		for _, c := range m.AllCores() {
			c.SetWorkload(workload.X264)
		}
	}
	res, err := m.Transient(*chipLabel, *steps, 1.0, rng.New(*seed))
	if err != nil {
		return err
	}
	st, err := m.Solve()
	if err != nil {
		return err
	}
	cs, err := st.ChipState(*chipLabel)
	if err != nil {
		return err
	}
	if *csvPath != "" {
		err := writeFile(*csvPath, func(f *os.File) error {
			return writeTransientCSV(f, cs.Cores, res.Samples)
		})
		if err != nil {
			return err
		}
		fmt.Printf("trace written to %s (deepest supply excursion %.1f mV)\n", *csvPath, minSupply(res.Samples).Millivolts())
	}
	t := &report.Table{
		Title:  fmt.Sprintf("Transient %s: %d intervals, %d margin violations", *chipLabel, *steps, res.Violations),
		Header: []string{"core", "loop mean freq (MHz)", "analytic settle (MHz)"},
	}
	for i, f := range res.MeanFreq {
		t.AddRow(cs.Cores[i].Label, report.F(float64(f), 0), report.F(float64(cs.Cores[i].Freq), 0))
	}
	return t.Render(os.Stdout)
}

// writeTransientCSV writes one row per sample: time (ns), supply (mV),
// then each core's frequency (MHz), under the labels of cores.
func writeTransientCSV(out io.Writer, cores []chip.CoreState, samples []chip.TransientSample) error {
	w := csv.NewWriter(out)
	row := []string{"time_ns", "supply_mv"}
	for _, c := range cores {
		row = append(row, c.Label+"_mhz")
	}
	if err := w.Write(row); err != nil {
		return err
	}
	for _, s := range samples {
		row = append(row[:0], strconv.FormatFloat(s.TimeNs, 'f', 1, 64),
			strconv.FormatFloat(s.Supply.Millivolts(), 'f', 1, 64))
		for _, mhz := range s.Freqs {
			row = append(row, strconv.FormatFloat(float64(mhz), 'f', 0, 64))
		}
		if err := w.Write(row); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}

// minSupply is the deepest supply excursion of a non-empty trace.
func minSupply(samples []chip.TransientSample) units.Volt {
	lo := samples[0].Supply
	for _, s := range samples {
		if s.Supply < lo {
			lo = s.Supply
		}
	}
	return lo
}
