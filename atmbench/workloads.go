package main

import "repro/internal/rng"

// workloads are the benchmark's workloads in report order. README.md
// records why each was chosen and which layers it stresses. The rates
// sit about 13% under the median speeds measured on the 2-vCPU
// reference host (≈75, ≈7.5 and ≈10.4 units/s), leaving room for set-up
// and checks: -seconds 30 runs 1950, 195 and 270 units, ≈26 s of units.
var workloads = []*bench{
	{name: "charact-pop", rate: 65, setup: setupCharact},
	{name: "dc-overload", rate: 6.5, setup: setupDC},
	{name: "lifetime-sentinel", rate: 9, setup: setupLifetime},
}

func workloadByName(name string) *bench {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

// unitSeed derives unit i's seed for one input stream from the workload
// seed. Seeds are non-zero (0 selects the reference silicon) and below
// 2^40, so the simulator's start+i seed arithmetic never wraps.
func unitSeed(seed uint64, stream string, i int) uint64 {
	return rng.New(seed).Split(stream).SplitIndex("unit", i).Uint64()%(1<<40) + 1
}
