package main

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro"
	"repro/internal/chip"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/workload"
)

// serverCores is the core count of every server the workloads build:
// the generator's default 2 chips × 8 cores, like the paper's machine.
const serverCores = 16

// charactSuite is charact-pop's inputs: one generated server per unit,
// silicon and machine built before timing.
type charactSuite struct {
	seed     uint64
	machines []*atm.Machine
}

func setupCharact(seed uint64, units int, t *tracer) (suite, error) {
	// The accuracy anchor: the paper-calibrated server, characterized at
	// the methodology defaults, must reproduce every published Table I
	// cell.
	var ref *atm.CharactReport
	if _, err := t.timed("atm.Characterize(reference)", 1, func() error {
		var err error
		ref, err = atm.Characterize(atm.NewReferenceMachine(), atm.CharactOptions{})
		return err
	}); err != nil {
		return nil, err
	}
	if err := checkTableI(ref); err != nil {
		return nil, err
	}
	s := &charactSuite{seed: seed, machines: make([]*atm.Machine, units)}
	for i := range s.machines {
		var p *atm.SiliconProfile
		if _, err := t.timed("silicon.Generate", 1, func() error {
			var err error
			p, err = atm.GenerateSilicon(unitSeed(seed, "charact/silicon", i), atm.GenerateOptions{})
			return err
		}); err != nil {
			return nil, err
		}
		if _, err := t.timed("chip.New", 1, func() error {
			var err error
			s.machines[i], err = atm.NewMachine(p)
			return err
		}); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// checkTableI compares a reference-server characterization with the
// paper's published Table I, all four limits of all 16 cores.
func checkTableI(rep *atm.CharactReport) error {
	rows := rep.TableI()
	if len(rows) != serverCores {
		return fmt.Errorf("reference Table I has %d rows, want %d", len(rows), serverCores)
	}
	bad := 0
	for _, row := range rows {
		idle, ub, normal, worst, ok := atm.ReferenceTableIRow(row.Core)
		if !ok {
			return fmt.Errorf("reference Table I has no row %s", row.Core)
		}
		for _, cell := range [][2]int{{row.Idle, idle}, {row.UBench, ub}, {row.Normal, normal}, {row.Worst, worst}} {
			if cell[0] != cell[1] {
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("reference characterization misses %d of %d Table I cells", bad, 4*len(rows))
	}
	return nil
}

func (s *charactSuite) run(i int, t *tracer) (output, error) {
	m := s.machines[i]
	out := &charactOut{}
	if t != nil {
		out.mix = &trialMix{keep: t.sampling}
		m.SetTrialObserver(out.mix.observe)
		defer m.SetTrialObserver(nil)
	}
	sp := t.begin("atm.Characterize")
	rep, err := atm.Characterize(m, atm.CharactOptions{})
	t.end(sp, 1)
	out.rep = rep
	return out, err
}

// trialRec is one retry-wrapped trial run as the trial observer saw it:
// indices into the mix's label and workload tables, kept pointer-free so
// recording stays cheap next to the trial itself.
type trialRec struct {
	core, wl  uint8
	reduction int16
	ok        bool
}

// trialMix is what a traced charact-pop unit ran, recorded through the
// machine's public trial observer: run and failure counts always, the
// (core, workload, reduction) sequence when the unit is replayed.
type trialMix struct {
	runs, failed int64
	keep         bool
	recs         []trialRec
	labels, wls  []string
	// The observer sees long runs of one core and workload; the last
	// pair's indices skip the table scans.
	lastLabel, lastWl string
	core, wl          uint8
}

// mixCapacity pre-sizes a replayed unit's record slice (a unit runs
// about 26k trials).
const mixCapacity = 1 << 15

func (x *trialMix) observe(label, wl string, _ int, res chip.TrialResult, err error) {
	ok := err == nil && res.OK()
	x.runs++
	if !ok {
		x.failed++
	}
	if !x.keep {
		return
	}
	if x.recs == nil {
		x.recs = make([]trialRec, 0, mixCapacity)
	}
	if label != x.lastLabel {
		x.core, x.lastLabel = intern(&x.labels, label), label
	}
	if wl != x.lastWl {
		x.wl, x.lastWl = intern(&x.wls, wl), wl
	}
	x.recs = append(x.recs, trialRec{x.core, x.wl, int16(res.Reduction), ok})
}

// intern returns s's index in table, appending it when absent.
func intern(table *[]string, s string) uint8 {
	for i, v := range *table {
		if v == s {
			return uint8(i)
		}
	}
	*table = append(*table, s)
	return uint8(len(*table) - 1)
}

type charactOut struct {
	rep *atm.CharactReport
	mix *trialMix
}

func (o *charactOut) check() error {
	if err := o.rep.Validate(); err != nil {
		return err
	}
	if len(o.rep.Cores) != serverCores {
		return fmt.Errorf("report has %d cores, want %d", len(o.rep.Cores), serverCores)
	}
	for _, c := range o.rep.Cores {
		if c.Quarantined {
			return fmt.Errorf("core %s quarantined: %s", c.Core, c.QuarantineReason)
		}
	}
	return nil
}

// histPairs lists a limit histogram as (value, count) pairs.
func histPairs(h *stats.Histogram) [][2]int {
	var out [][2]int
	for _, v := range h.Support() {
		out = append(out, [2]int{v, h.Count(v)})
	}
	return out
}

func (o *charactOut) canonical() ([]byte, error) {
	type core struct {
		Core        string             `json:"core"`
		Idle        [][2]int           `json:"idle"`
		IdleLimit   int                `json:"idle_limit"`
		IdleFreqMHz float64            `json:"idle_freq_mhz"`
		UBench      int                `json:"ubench"`
		Rollback    [][2]int           `json:"ubench_rollback"`
		PerKernel   map[string]int     `json:"per_kernel"`
		App         map[string]int     `json:"app"`
		AppRollback map[string]float64 `json:"app_rollback"`
		Normal      int                `json:"normal"`
		Worst       int                `json:"worst"`
	}
	cores := make([]core, len(o.rep.Cores))
	for i, c := range o.rep.Cores {
		cores[i] = core{
			Core:        c.Core,
			Idle:        histPairs(c.Idle.Hist),
			IdleLimit:   c.Idle.Limit,
			IdleFreqMHz: float64(c.IdleFreq),
			UBench:      c.UBenchLimit,
			Rollback:    histPairs(c.UBenchRollback),
			PerKernel:   c.PerKernelLimit,
			App:         c.AppLimit,
			AppRollback: c.AppRollbackMean,
			Normal:      c.ThreadNormal,
			Worst:       c.ThreadWorst,
		}
	}
	return json.Marshal(cores)
}

func (o *charactOut) count(c counts) {
	for _, row := range o.rep.TableI() {
		c["charact.limit_sum"] += int64(row.Idle + row.UBench + row.Normal + row.Worst)
	}
	if o.mix != nil {
		c["charact.runs"] += o.mix.runs
		c["charact.failed_runs"] += o.mix.failed
	}
}

// Sinks keep replayed results live so the compiler cannot drop or
// stack-allocate what the real call sites heap-allocate.
var (
	splitSink   *rng.Source
	coreSink    *chip.Core
	machineSink *atm.Machine
)

// buildCalls is how many machines a sampled charact-pop unit's chip.New
// replay builds per repetition.
const buildCalls = 16

// replay re-runs, on unit i's machine, each layer's exported function
// over the mix the traced unit recorded: every trial at its recorded
// core and reduction, the same splits and core lookups, and the build of
// the unit's machine from its silicon.
func (s *charactSuite) replay(i int, o output, _, plain unitStats, t *tracer) (layerSample, error) {
	out := o.(*charactOut)
	mix := out.mix
	recs := mix.recs
	opts := out.rep.Opts
	m := s.machines[i]
	defer m.ResetAll()
	if len(recs) == 0 {
		return layerSample{}, fmt.Errorf("no trials recorded")
	}

	// A configuration ends at its first failed run or after
	// RunsPerConfig clean ones; every search runs Trials trials.
	configs, passes := 0, 0
	for k, r := range recs {
		if k > 0 && (r.core != recs[k-1].core || r.wl != recs[k-1].wl) {
			passes = 0
		}
		if !r.ok {
			configs++
			passes = 0
			continue
		}
		if passes++; passes == opts.RunsPerConfig {
			configs++
			passes = 0
		}
	}
	runs := len(recs)
	trials := len(out.rep.Cores) * (1 + len(workload.UBench()) + len(opts.Apps)) * opts.Trials
	splits := runs + configs + trials

	// Group the mix by (core, reduction) so each group programs its CPM
	// once; workloads are indices into a table resolved up front.
	order := make([]int, runs)
	for k := range order {
		order[k] = k
	}
	sort.SliceStable(order, func(a, b int) bool {
		ra, rb := recs[order[a]], recs[order[b]]
		if ra.core != rb.core {
			return ra.core < rb.core
		}
		return ra.reduction < rb.reduction
	})
	table := make([]workload.Profile, len(mix.wls))
	for k, name := range mix.wls {
		w, err := workload.ByName(name)
		if err != nil {
			return layerSample{}, err
		}
		table[k] = w
	}
	type group struct {
		label     string
		reduction int
		core      *chip.Core
		ws        []uint8
	}
	var groups []group
	for _, k := range order {
		r := recs[k]
		label, red := mix.labels[r.core], int(r.reduction)
		if n := len(groups); n == 0 || groups[n-1].label != label || groups[n-1].reduction != red {
			core, err := m.Core(label)
			if err != nil {
				return layerSample{}, err
			}
			groups = append(groups, group{label: label, reduction: red, core: core})
		}
		g := &groups[len(groups)-1]
		g.ws = append(g.ws, r.wl)
	}

	src := rng.New(s.seed).Split("atmbench/replay")
	trialNS, err := t.timedReps("chip.Machine.RunTrial", runs, func() error {
		for _, g := range groups {
			if err := m.ProgramCPM(g.label, g.reduction); err != nil {
				return err
			}
			for _, wi := range g.ws {
				if _, err := m.RunTrial(g.label, table[wi], src); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return layerSample{}, err
	}
	survNS, err := t.timedReps("silicon.CoreProfile.SurvivesTrial", runs, func() error {
		for _, g := range groups {
			p := g.core.Profile
			for _, wi := range g.ws {
				if _, err := p.SurvivesTrial(g.reduction, table[wi].StressScore, src); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return layerSample{}, err
	}
	splitNS, _ := t.timedReps("rng.Source.SplitIndex", splits, func() error {
		for k := 0; k < runs; k++ {
			splitSink = src.SplitIndex("run", k%opts.RunsPerConfig)
		}
		for k := 0; k < configs; k++ {
			splitSink = src.SplitIndex("r", int(recs[k].reduction))
		}
		for k := 0; k < trials; k++ {
			splitSink = src.SplitIndex("trial", k%opts.Trials)
		}
		return nil
	})
	lookupNS, err := t.timedReps("chip.Machine.Core", runs, func() error {
		for _, r := range recs {
			c, err := m.Core(mix.labels[r.core])
			if err != nil {
				return err
			}
			coreSink = c
		}
		return nil
	})
	if err != nil {
		return layerSample{}, err
	}
	buildNS, err := t.timedReps("chip.New", buildCalls, func() error {
		for k := 0; k < buildCalls; k++ {
			var err error
			if machineSink, err = atm.NewMachine(m.Profile()); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return layerSample{}, err
	}

	n := float64(runs)
	nsPerRun := float64(plain.ns) / n
	return layerSample{
		metrics: map[string]float64{
			"chip.trial_ns":              trialNS,
			"silicon.survives_ns":        survNS,
			"rng.split_ns":               splitNS,
			"chip.core_lookup_ns":        lookupNS,
			"charact.ns_per_run":         nsPerRun,
			"charact.harness_ns_per_run": nsPerRun - trialNS,
			"charact.allocs_per_run":     float64(plain.allocs) / n,
			"chip.build_ms":              buildNS / 1e6,
		},
		estimates: []metric{
			{"silicon.CoreProfile.SurvivesTrial", survNS * n, "ns"},
			{"chip.Machine.RunTrial (self)", (trialNS - survNS) * n, "ns"},
			{"chip.Machine.Core (per ProgramCPM)", lookupNS * float64(configs), "ns"},
			{"rng.Source.SplitIndex", splitNS * float64(splits), "ns"},
		},
	}, nil
}
