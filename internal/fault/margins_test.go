package fault

import (
	"slices"
	"testing"

	"repro/internal/chip"
	"repro/internal/fsp"
)

// TestClientMarginsUnderGarbledTransport: the margins verb — the
// sentinel's telemetry path — must survive a faulty link like every
// other command. Dropped and garbled response lines are absorbed by
// the client's retry/re-sync envelope and the values delivered are
// identical to a clean link's.
func TestClientMarginsUnderGarbledTransport(t *testing.T) {
	clean := fsp.NewClient(fsp.NewLoopback(fsp.NewSession(fsp.NewController(chip.NewReference()))), fsp.ClientOptions{})
	want, err := clean.Margins()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("clean margins read returned no cores")
	}

	read := func(seed uint64) ([][]fsp.CoreMargin, fsp.ClientStats) {
		ctl := fsp.NewController(chip.NewReference())
		inj := New(Profile{DropProb: 0.15, GarbleProb: 0.25}, seed)
		rw := inj.WrapReadWriter(fsp.NewLoopback(fsp.NewSession(ctl)))
		cli := fsp.NewClient(rw, fsp.ClientOptions{Retries: 8})
		var out [][]fsp.CoreMargin
		for i := 0; i < 10; i++ {
			ms, err := cli.Margins()
			if err != nil {
				t.Fatalf("margins read %d under faults: %v", i, err)
			}
			// Margins reuses its result slice on the next call.
			out = append(out, slices.Clone(ms))
		}
		return out, cli.Stats()
	}

	got, st := read(7)
	if st.Retries == 0 && st.Resyncs == 0 {
		t.Fatalf("fault profile injected nothing (stats %+v) — the test is vacuous", st)
	}
	for i, ms := range got {
		if len(ms) != len(want) {
			t.Fatalf("read %d returned %d cores, want %d", i, len(ms), len(want))
		}
		for k := range ms {
			if ms[k] != want[k] {
				t.Fatalf("read %d core %d = %+v, want %+v (faults leaked into values)", i, k, ms[k], want[k])
			}
		}
	}

	// Identical seeds replay the identical fault schedule.
	got2, st2 := read(7)
	if st != st2 {
		t.Fatalf("same seed, different stats: %+v vs %+v", st, st2)
	}
	for i := range got {
		for k := range got[i] {
			if got[i][k] != got2[i][k] {
				t.Fatalf("same seed, different values at read %d core %d", i, k)
			}
		}
	}
}
