package chip_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/chip"
	"repro/internal/fault"
	"repro/internal/rng"
	"repro/internal/silicon"
	"repro/internal/workload"
)

// trialPair is one server built twice from the same profile: ref runs
// the record-building reference trial, slim the kind-returning entry
// points with an observer that keeps the last record it saw.
type trialPair struct {
	ref, slim *chip.Machine

	seen    int
	rec     chip.TrialResult
	retries int
	err     error
}

func newTrialPair(t *testing.T, build func() (*silicon.ServerProfile, error), fp fault.Profile) *trialPair {
	t.Helper()
	p := &trialPair{}
	for _, m := range []**chip.Machine{&p.ref, &p.slim} {
		prof, err := build()
		if err != nil {
			t.Fatal(err)
		}
		if *m, err = chip.New(prof, chip.Options{}); err != nil {
			t.Fatal(err)
		}
		if !fp.Empty() {
			fault.New(fp, 7).ArmMachine(*m)
		}
	}
	p.slim.SetTrialObserver(func(_, _ string, retries int, res chip.TrialResult, err error) {
		p.seen++
		p.rec, p.retries, p.err = res, retries, err
	})
	return p
}

// sameErr reports whether two trial errors are both nil, or carry the
// same text and agree on ErrTransient.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error() && errors.Is(a, chip.ErrTransient) == errors.Is(b, chip.ErrTransient)
}

// trialCounts tallies what a sweep compared, so the test can tell that
// it reached every branch it guards.
type trialCounts struct {
	handle, label int
	kinds         [4]int
	undetected    int
	errs, retried int
	static        int
}

// compare runs one retry-wrapped trial and one label-addressed trial of
// w on core index ci of both machines, from equal streams, and checks
// the kinds, the streams afterwards, the observer's record, the retries
// used and the errors against the reference.
func (p *trialPair) compare(t *testing.T, ci int, w *workload.Profile, src *rng.Source, n *trialCounts) {
	t.Helper()
	refCore, slimCore := p.ref.AllCores()[ci], p.slim.AllCores()[ci]
	where := fmt.Sprintf("%s at r=%d, %s", slimCore.Profile.Label, slimCore.Reduction(), w.Name)

	srcRef, srcSlim := *src, *src
	want, used, errRef := p.ref.RunCoreTrialRetryReference(refCore, w, &srcRef, 2)
	seen := p.seen
	f, err := p.slim.RunCoreTrialRetry(slimCore, w, &srcSlim, 2)
	switch {
	case f != want.Failure:
		t.Fatalf("%s: RunCoreTrialRetry kind %v, reference %v", where, f, want.Failure)
	case srcSlim != srcRef:
		t.Fatalf("%s: RunCoreTrialRetry left the stream elsewhere than the reference", where)
	case !sameErr(err, errRef):
		t.Fatalf("%s: RunCoreTrialRetry error %v, reference %v", where, err, errRef)
	case p.seen != seen+1:
		t.Fatalf("%s: observer called %d times for one trial", where, p.seen-seen)
	case p.rec != want:
		t.Fatalf("%s: observer record %+v, reference %+v", where, p.rec, want)
	case p.retries != used:
		t.Fatalf("%s: observer saw %d retries, reference used %d", where, p.retries, used)
	case !sameErr(p.err, errRef):
		t.Fatalf("%s: observer error %v, reference %v", where, p.err, errRef)
	}
	n.handle++
	n.kinds[want.Failure]++
	if !want.Detected {
		n.undetected++
	}
	if errRef != nil {
		n.errs++
	}
	if used > 0 {
		n.retried++
	}
	if slimCore.Mode() == chip.ModeStatic {
		n.static++
	}

	label := slimCore.Profile.Label
	srcRef, srcSlim = *src, *src
	wantL, errRefL := p.ref.RunTrialReference(label, *w, &srcRef)
	fL, errL := p.slim.RunTrial(label, *w, &srcSlim)
	switch {
	case fL != wantL.Failure:
		t.Fatalf("%s: RunTrial kind %v, reference %v", where, fL, wantL.Failure)
	case srcSlim != srcRef:
		t.Fatalf("%s: RunTrial left the stream elsewhere than the reference", where)
	case !sameErr(errL, errRefL):
		t.Fatalf("%s: RunTrial error %v, reference %v", where, errL, errRefL)
	case chip.TrialRecord(slimCore, w, fL) != wantL:
		t.Fatalf("%s: record %+v, reference %+v", where, chip.TrialRecord(slimCore, w, fL), wantL)
	}
	n.label++
}

// sweep programs every core of both machines to every reduction from 0
// to its maximum and compares a trial of every workload there, then
// compares the same workloads on the first core held at static margin
// at its maximum reduction.
func (p *trialPair) sweep(t *testing.T, works []workload.Profile, src *rng.Source, n *trialCounts) {
	t.Helper()
	for ci, core := range p.slim.AllCores() {
		label := core.Profile.Label
		for r := 0; r <= core.Profile.MaxReduction(); r++ {
			for _, m := range []*chip.Machine{p.ref, p.slim} {
				if err := m.ProgramCPM(label, r); err != nil {
					t.Fatal(err)
				}
			}
			for wi := range works {
				p.compare(t, ci, &works[wi], src.SplitIndex(label, r*len(works)+wi), n)
			}
		}
	}
	label := p.slim.AllCores()[0].Profile.Label
	for _, m := range []*chip.Machine{p.ref, p.slim} {
		core := m.AllCores()[0]
		core.SetMode(chip.ModeStatic)
		if err := m.ProgramCPM(label, core.Profile.MaxReduction()); err != nil {
			t.Fatal(err)
		}
	}
	for wi := range works {
		p.compare(t, 0, &works[wi], src.SplitIndex("static", wi), n)
	}
	for _, m := range []*chip.Machine{p.ref, p.slim} {
		m.AllCores()[0].SetMode(chip.ModeATM)
	}
}

// TestTrialKindMatchesRecord holds the kind-returning trial entry points
// to the record-building reference trial they replaced: on the
// reference server and eight generated ones, at every core's every
// reduction, for every uBench and realistic workload and an x264 copy
// without a checker, and on a core at static margin. Each trial's kind,
// the stream it leaves, the observer's record, the retries used and the
// error must equal the reference's, fault-free and with a fault
// injector armed.
func TestTrialKindMatchesRecord(t *testing.T) {
	noChecker := workload.X264
	noChecker.Name = "x264-unchecked"
	noChecker.HasChecker = false
	works := append(append(workload.UBench(), workload.Realistic()...), noChecker)

	servers := []func() (*silicon.ServerProfile, error){
		func() (*silicon.ServerProfile, error) { return silicon.Reference(), nil },
	}
	for seed := uint64(1); seed <= 8; seed++ {
		servers = append(servers, func() (*silicon.ServerProfile, error) {
			return silicon.Generate(seed, silicon.GenerateOptions{})
		})
	}
	for _, tc := range []struct {
		name string
		fp   fault.Profile
	}{
		{"fault-free", fault.Profile{}},
		{"trial-err+broken", fault.Profile{TrialErrProb: 0.3, BrokenCores: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var n trialCounts
			for si, build := range servers {
				p := newTrialPair(t, build, tc.fp)
				p.sweep(t, works, rng.New(uint64(si)+1), &n)
			}
			t.Logf("%d retry-wrapped and %d label trials; kinds %v; %d undetected, %d errors, %d retried, %d at static margin",
				n.handle, n.label, n.kinds, n.undetected, n.errs, n.retried, n.static)
			for k, c := range n.kinds {
				if c == 0 {
					t.Errorf("no trial ended in %v", chip.FailureKind(k))
				}
			}
			if n.undetected == 0 {
				t.Error("no undetected SDC: the checker-less copy went unmeasured")
			}
			if n.static == 0 {
				t.Error("no trial ran at static margin")
			}
			if injected := !tc.fp.Empty(); injected != (n.errs > 0) || injected != (n.retried > 0) {
				t.Errorf("%d errors and %d retried trials with faults armed=%v", n.errs, n.retried, injected)
			}
		})
	}
}
