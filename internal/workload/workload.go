// Package workload is the behavioural workload library of the
// reproduction: every application the paper runs — the three
// micro-benchmarks, the SPEC CPU 2017 and PARSEC 3.0 programs, the deep
// learning inference tasks of Table II, and the test-time stressmarks —
// reduced to the axes that matter to an ATM system.
//
// The paper itself characterizes each workload by exactly three
// properties, and those are what a profile carries:
//
//   - power draw (dynamic capacitance): sets the DC voltage drop and
//     hence every core's settled frequency (Eq. 1);
//   - di/dt stress score: how hard the program's activity swings push
//     the fine-tuned control loop (the rows of Fig. 10) — pipeline
//     flushes, bursty issue patterns and synchronization all raise it;
//   - memory intensity: how much of the program's time is insensitive
//     to core frequency (the slopes of Fig. 12b, the columns of
//     Table II).
//
// Real traces and binaries are unavailable (and would be POWER ISA
// anyway); the calibration targets are the paper's published orderings:
// x264 and ferret stress ATM most, gcc and leela least (Fig. 9/10), mcf
// is the memory-bound extreme (Fig. 12b), streamcluster draws little
// power even at high frequency (Sec. VII-D), lu_cb is power-hungry.
package workload

import (
	"fmt"
	"sort"
)

// Suite labels where a workload comes from.
type Suite string

// The workload suites of the paper's methodology (Fig. 6).
const (
	SuiteIdle       Suite = "idle"
	SuiteUBench     Suite = "ubench"
	SuiteSPEC       Suite = "spec2017"
	SuitePARSEC     Suite = "parsec3"
	SuiteDNN        Suite = "dnn"
	SuiteStressmark Suite = "stressmark"
)

// Role is the Table II scheduling classification.
type Role string

// Roles: critical workloads are latency-sensitive and user-facing;
// background workloads tolerate throttling; utility workloads exist for
// characterization only and are never scheduled by the manager.
const (
	RoleCritical   Role = "critical"
	RoleBackground Role = "background"
	RoleUtility    Role = "utility"
)

// Profile is one workload's behavioural description.
type Profile struct {
	// Name is the canonical lowercase benchmark name.
	Name string
	// Suite is the benchmark's origin.
	Suite Suite
	// Role is the Table II classification.
	Role Role
	// CdynRel is the per-core dynamic-capacitance draw relative to
	// daxpy (the highest-power kernel, 1.0).
	CdynRel float64
	// MemIntensity ∈ [0,1] is the fraction of runtime that does not
	// scale with core frequency at the 4.2 GHz baseline (the Fig. 12b
	// slope). The paper's critical inference tasks are cache-resident
	// and gain nearly the full frequency ratio.
	MemIntensity float64
	// MemInterference marks the Table II "memory intensive" rows: the
	// scheduler never co-locates two such workloads, a bandwidth /
	// cache-footprint property distinct from frequency sensitivity.
	MemInterference bool
	// StressScore ∈ [0,1] is the di/dt pressure on a fine-tuned ATM
	// loop; 1 is the most stressful profiled workload.
	StressScore float64
	// HasChecker reports whether the benchmark ships a result checker
	// the methodology can use to detect silent data corruption.
	HasChecker bool
	// BaselineLatencyMs, when non-zero, is the task latency at the
	// 4.2 GHz static-margin baseline (only meaningful for the
	// latency-style critical tasks, e.g. SqueezeNet's 80 ms inference).
	BaselineLatencyMs float64
}

// RelPerf returns the workload's performance at frequency fMHz relative
// to the static-margin baseline frequency baseMHz, under the
// memory-boundness model of Fig. 12b: runtime = mem + (1−mem)·(base/f),
// so memory-bound programs gain less from frequency.
func (p Profile) RelPerf(fMHz, baseMHz float64) float64 {
	if fMHz <= 0 || baseMHz <= 0 {
		return 0
	}
	denom := p.MemIntensity + (1-p.MemIntensity)*(baseMHz/fMHz)
	return 1 / denom
}

// LatencyMs returns the task latency at frequency fMHz given the
// baseline latency at baseMHz. Zero when the profile has no latency
// metric.
func (p Profile) LatencyMs(fMHz, baseMHz float64) float64 {
	if p.BaselineLatencyMs == 0 {
		return 0
	}
	rp := p.RelPerf(fMHz, baseMHz)
	if rp <= 0 {
		return 0
	}
	return p.BaselineLatencyMs / rp
}

// MemIntensive reports the Table II row: whether co-locating two of
// these risks memory-subsystem interference.
func (p Profile) MemIntensive() bool { return p.MemInterference }

// Validate reports whether the profile is well-formed.
func (p Profile) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("workload: empty name")
	case p.CdynRel < 0 || p.CdynRel > 1.5:
		return fmt.Errorf("workload %s: CdynRel %g outside [0,1.5]", p.Name, p.CdynRel)
	case p.MemIntensity < 0 || p.MemIntensity > 1:
		return fmt.Errorf("workload %s: MemIntensity %g outside [0,1]", p.Name, p.MemIntensity)
	case p.StressScore < 0 || p.StressScore > 1.2:
		return fmt.Errorf("workload %s: StressScore %g outside [0,1.2]", p.Name, p.StressScore)
	}
	return nil
}

// UBenchStressScore is the stress score shared by the three
// micro-benchmarks: they exercise the functional units with smooth,
// controlled behaviour and create little di/dt activity (Sec. V-A).
const UBenchStressScore = 0.12

// library is the profile registry, keyed by name.
var library = map[string]Profile{}

func register(p Profile) Profile {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if _, dup := library[p.Name]; dup {
		panic("workload: duplicate profile " + p.Name)
	}
	library[p.Name] = p
	return p
}

// Idle is the no-application system-idle environment.
var Idle = register(Profile{
	Name: "idle", Suite: SuiteIdle, Role: RoleUtility,
	CdynRel: 0.10, MemIntensity: 0, StressScore: 0, HasChecker: false,
})

// The three micro-benchmarks of Sec. V-A. Together they cover the
// core's control/branch/integer units (coremark), the floating point
// unit (daxpy) and the load-store unit and caches (stream).
var (
	Coremark = register(Profile{
		Name: "coremark", Suite: SuiteUBench, Role: RoleUtility,
		CdynRel: 0.72, MemIntensity: 0.05, StressScore: UBenchStressScore, HasChecker: true,
	})
	Daxpy = register(Profile{
		Name: "daxpy", Suite: SuiteUBench, Role: RoleUtility,
		CdynRel: 1.0, MemIntensity: 0.10, StressScore: UBenchStressScore, HasChecker: true,
	})
	Stream = register(Profile{
		Name: "stream", Suite: SuiteUBench, Role: RoleUtility,
		CdynRel: 0.62, MemIntensity: 0.95, StressScore: UBenchStressScore, MemInterference: true, HasChecker: true,
	})
)

// SPEC CPU 2017 workloads used in the paper's figures.
var (
	GCC = register(Profile{
		Name: "gcc", Suite: SuiteSPEC, Role: RoleBackground,
		CdynRel: 0.55, MemIntensity: 0.55, StressScore: 0.16, MemInterference: true, HasChecker: true,
	})
	MCF = register(Profile{
		Name: "mcf", Suite: SuiteSPEC, Role: RoleBackground,
		CdynRel: 0.45, MemIntensity: 0.90, StressScore: 0.50, MemInterference: true, HasChecker: true,
	})
	X264 = register(Profile{
		Name: "x264", Suite: SuiteSPEC, Role: RoleBackground,
		CdynRel: 0.85, MemIntensity: 0.15, StressScore: 1.00, HasChecker: true,
	})
	Leela = register(Profile{
		Name: "leela", Suite: SuiteSPEC, Role: RoleBackground,
		CdynRel: 0.55, MemIntensity: 0.10, StressScore: 0.14, HasChecker: true,
	})
	Exchange2 = register(Profile{
		Name: "exchange2", Suite: SuiteSPEC, Role: RoleBackground,
		CdynRel: 0.65, MemIntensity: 0.05, StressScore: 0.24, HasChecker: true,
	})
	Deepsjeng = register(Profile{
		Name: "deepsjeng", Suite: SuiteSPEC, Role: RoleBackground,
		CdynRel: 0.66, MemIntensity: 0.15, StressScore: 0.68, HasChecker: true,
	})
	XZ = register(Profile{
		Name: "xz", Suite: SuiteSPEC, Role: RoleBackground,
		CdynRel: 0.60, MemIntensity: 0.45, StressScore: 0.58, HasChecker: true,
	})
	Perlbench = register(Profile{
		Name: "perlbench", Suite: SuiteSPEC, Role: RoleBackground,
		CdynRel: 0.60, MemIntensity: 0.30, StressScore: 0.44, HasChecker: true,
	})
	Omnetpp = register(Profile{
		Name: "omnetpp", Suite: SuiteSPEC, Role: RoleBackground,
		CdynRel: 0.55, MemIntensity: 0.70, StressScore: 0.62, MemInterference: true, HasChecker: true,
	})
	Xalancbmk = register(Profile{
		Name: "xalancbmk", Suite: SuiteSPEC, Role: RoleBackground,
		CdynRel: 0.52, MemIntensity: 0.60, StressScore: 0.40, MemInterference: true, HasChecker: true,
	})
)

// PARSEC 3.0 workloads (lu_cb is from the bundled SPLASH-2x set).
var (
	Ferret = register(Profile{
		Name: "ferret", Suite: SuitePARSEC, Role: RoleCritical,
		CdynRel: 0.75, MemIntensity: 0.12, StressScore: 0.93, MemInterference: true, HasChecker: true,
		BaselineLatencyMs: 120,
	})
	Facesim = register(Profile{
		Name: "facesim", Suite: SuitePARSEC, Role: RoleBackground,
		CdynRel: 0.60, MemIntensity: 0.65, StressScore: 0.48, MemInterference: true, HasChecker: true,
	})
	LUCB = register(Profile{
		Name: "lu_cb", Suite: SuitePARSEC, Role: RoleBackground,
		CdynRel: 0.78, MemIntensity: 0.70, StressScore: 0.46, MemInterference: true, HasChecker: true,
	})
	Streamcluster = register(Profile{
		Name: "streamcluster", Suite: SuitePARSEC, Role: RoleBackground,
		CdynRel: 0.34, MemIntensity: 0.80, StressScore: 0.30, MemInterference: true, HasChecker: true,
	})
	Blackscholes = register(Profile{
		Name: "blackscholes", Suite: SuitePARSEC, Role: RoleBackground,
		CdynRel: 0.55, MemIntensity: 0.15, StressScore: 0.26, HasChecker: true,
	})
	Swaptions = register(Profile{
		Name: "swaptions", Suite: SuitePARSEC, Role: RoleBackground,
		CdynRel: 0.60, MemIntensity: 0.10, StressScore: 0.38, HasChecker: true,
	})
	Raytrace = register(Profile{
		Name: "raytrace", Suite: SuitePARSEC, Role: RoleBackground,
		CdynRel: 0.50, MemIntensity: 0.20, StressScore: 0.34, HasChecker: true,
	})
	Fluidanimate = register(Profile{
		Name: "fluidanimate", Suite: SuitePARSEC, Role: RoleCritical,
		CdynRel: 0.80, MemIntensity: 0.12, StressScore: 0.84, MemInterference: true, HasChecker: true,
		BaselineLatencyMs: 95,
	})
	Bodytrack = register(Profile{
		Name: "bodytrack", Suite: SuitePARSEC, Role: RoleCritical,
		CdynRel: 0.65, MemIntensity: 0.10, StressScore: 0.54, HasChecker: true,
		BaselineLatencyMs: 60,
	})
	Vips = register(Profile{
		Name: "vips", Suite: SuitePARSEC, Role: RoleCritical,
		CdynRel: 0.60, MemIntensity: 0.08, StressScore: 0.36, HasChecker: true,
		BaselineLatencyMs: 45,
	})
	Canneal = register(Profile{
		Name: "canneal", Suite: SuitePARSEC, Role: RoleBackground,
		CdynRel: 0.45, MemIntensity: 0.85, StressScore: 0.42, MemInterference: true, HasChecker: true,
	})
)

// Additional SPEC CPU 2017 floating-point workloads.
var (
	Povray = register(Profile{
		Name: "povray", Suite: SuiteSPEC, Role: RoleBackground,
		CdynRel: 0.68, MemIntensity: 0.10, StressScore: 0.42, HasChecker: true,
	})
	Imagick = register(Profile{
		Name: "imagick", Suite: SuiteSPEC, Role: RoleBackground,
		CdynRel: 0.72, MemIntensity: 0.15, StressScore: 0.38, HasChecker: true,
	})
	Nab = register(Profile{
		Name: "nab", Suite: SuiteSPEC, Role: RoleBackground,
		CdynRel: 0.66, MemIntensity: 0.25, StressScore: 0.30, HasChecker: true,
	})
	Fotonik3d = register(Profile{
		Name: "fotonik3d", Suite: SuiteSPEC, Role: RoleBackground,
		CdynRel: 0.55, MemIntensity: 0.85, StressScore: 0.44, MemInterference: true, HasChecker: true,
	})
	Roms = register(Profile{
		Name: "roms", Suite: SuiteSPEC, Role: RoleBackground,
		CdynRel: 0.60, MemIntensity: 0.70, StressScore: 0.40, MemInterference: true, HasChecker: true,
	})
	CactuBSSN = register(Profile{
		Name: "cactubssn", Suite: SuiteSPEC, Role: RoleBackground,
		CdynRel: 0.62, MemIntensity: 0.60, StressScore: 0.52, MemInterference: true, HasChecker: true,
	})
	Bwaves = register(Profile{
		Name: "bwaves", Suite: SuiteSPEC, Role: RoleBackground,
		CdynRel: 0.58, MemIntensity: 0.80, StressScore: 0.36, MemInterference: true, HasChecker: true,
	})
	LBM = register(Profile{
		Name: "lbm", Suite: SuiteSPEC, Role: RoleBackground,
		CdynRel: 0.62, MemIntensity: 0.90, StressScore: 0.48, MemInterference: true, HasChecker: true,
	})
	WRF = register(Profile{
		Name: "wrf", Suite: SuiteSPEC, Role: RoleBackground,
		CdynRel: 0.60, MemIntensity: 0.55, StressScore: 0.46, MemInterference: true, HasChecker: true,
	})
	Parest = register(Profile{
		Name: "parest", Suite: SuiteSPEC, Role: RoleBackground,
		CdynRel: 0.58, MemIntensity: 0.50, StressScore: 0.34, MemInterference: true, HasChecker: true,
	})
)

// Additional PARSEC 3.0 workloads.
var (
	Freqmine = register(Profile{
		Name: "freqmine", Suite: SuitePARSEC, Role: RoleBackground,
		CdynRel: 0.62, MemIntensity: 0.45, StressScore: 0.44, HasChecker: true,
	})
	Dedup = register(Profile{
		Name: "dedup", Suite: SuitePARSEC, Role: RoleBackground,
		CdynRel: 0.60, MemIntensity: 0.60, StressScore: 0.58, MemInterference: true, HasChecker: true,
	})
)

// Deep-learning inference tasks of Table II (user-facing, latency
// critical) plus the mlp training job (background).
var (
	SqueezeNet = register(Profile{
		Name: "squeezenet", Suite: SuiteDNN, Role: RoleCritical,
		CdynRel: 0.70, MemIntensity: 0.05, StressScore: 0.36, HasChecker: true,
		BaselineLatencyMs: 80, // Fig. 2: 80 ms at the static margin
	})
	ResNet = register(Profile{
		Name: "resnet", Suite: SuiteDNN, Role: RoleCritical,
		CdynRel: 0.75, MemIntensity: 0.15, StressScore: 0.46, MemInterference: true, HasChecker: true,
		BaselineLatencyMs: 210,
	})
	VGG19 = register(Profile{
		Name: "vgg19", Suite: SuiteDNN, Role: RoleCritical,
		CdynRel: 0.80, MemIntensity: 0.15, StressScore: 0.50, MemInterference: true, HasChecker: true,
		BaselineLatencyMs: 340,
	})
	Seq2Seq = register(Profile{
		Name: "seq2seq", Suite: SuiteDNN, Role: RoleCritical,
		CdynRel: 0.55, MemIntensity: 0.08, StressScore: 0.30, HasChecker: true,
		BaselineLatencyMs: 38,
	})
	Babi = register(Profile{
		Name: "babi", Suite: SuiteDNN, Role: RoleCritical,
		CdynRel: 0.50, MemIntensity: 0.08, StressScore: 0.26, HasChecker: true,
		BaselineLatencyMs: 22,
	})
	MLP = register(Profile{
		Name: "mlp", Suite: SuiteDNN, Role: RoleBackground,
		CdynRel: 0.60, MemIntensity: 0.60, StressScore: 0.32, MemInterference: true, HasChecker: true,
	})
)

// ByName returns the named profile.
func ByName(name string) (Profile, error) {
	p, ok := library[name]
	if !ok {
		return Profile{}, fmt.Errorf("workload: unknown benchmark %q", name)
	}
	return p, nil
}

// MustByName is ByName for static names; it panics on unknown names.
func MustByName(name string) Profile {
	p, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return p
}

// All returns every registered profile sorted by name.
func All() []Profile {
	out := make([]Profile, 0, len(library))
	for _, p := range library {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// BySuite returns the profiles of one suite sorted by name.
func BySuite(s Suite) []Profile {
	var out []Profile
	for _, p := range All() {
		if p.Suite == s {
			out = append(out, p)
		}
	}
	return out
}

// UBench returns the three micro-benchmarks.
func UBench() []Profile { return BySuite(SuiteUBench) }

// Realistic returns the SPEC + PARSEC + DNN applications (the Sec. VI
// profiling set), sorted by name.
func Realistic() []Profile {
	var out []Profile
	for _, p := range All() {
		switch p.Suite {
		case SuiteSPEC, SuitePARSEC, SuiteDNN:
			out = append(out, p)
		}
	}
	return out
}

// ByRole returns the Table II classification column.
func ByRole(r Role) []Profile {
	var out []Profile
	for _, p := range Realistic() {
		if p.Role == r {
			out = append(out, p)
		}
	}
	return out
}

// Critical returns the latency-sensitive Table II workloads.
func Critical() []Profile { return ByRole(RoleCritical) }

// Background returns the throttle-tolerant Table II workloads.
func Background() []Profile { return ByRole(RoleBackground) }
