package dc

import (
	"sort"
	"testing"

	"repro/internal/rng"
)

// TestEnqueueMatchesStableSort checks the queue's ordered insertion
// against the stable sort the sim used to run every tick: sorted
// survivors, then evacuees and arrivals with mixed critical flags and
// random unique IDs, inserted one by one, must give the same queue as
// appending them all and sorting.
func TestEnqueueMatchesStableSort(t *testing.T) {
	less := func(q []*tenant) func(i, j int) bool {
		return func(i, j int) bool {
			if q[i].critical != q[j].critical {
				return q[i].critical
			}
			return q[i].id < q[j].id
		}
	}
	src := rng.New(7)
	for trial := 0; trial < 500; trial++ {
		ids := src.Perm(1 + src.Intn(600))
		mk := func(id int) *tenant {
			return &tenant{id: id, critical: src.Intn(3) == 0, chip: -1, core: -1}
		}
		nSurv := src.Intn(len(ids) + 1)
		survivors := make([]*tenant, nSurv)
		for k := range survivors {
			survivors[k] = mk(ids[k])
		}
		sort.SliceStable(survivors, less(survivors))
		var newcomers []*tenant
		for _, id := range ids[nSurv:] {
			t := mk(id)
			if src.Intn(4) == 0 {
				t.pendingMig, t.everDisplaced = true, true
			}
			newcomers = append(newcomers, t)
		}

		want := append(append([]*tenant(nil), survivors...), newcomers...)
		sort.SliceStable(want, less(want))
		got := append([]*tenant(nil), survivors...)
		for _, t := range newcomers {
			got = enqueue(got, t)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d queued, want %d", trial, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("trial %d: position %d holds tenant %d (critical %v), want %d (critical %v)",
					trial, k, got[k].id, got[k].critical, want[k].id, want[k].critical)
			}
		}
	}
}
