// Package perf is the performance-observability plane: a structured
// microbenchmark runner over the //atm:hotpath kernel and the
// end-to-end tuning stages, a deterministic flood harness for the FSP
// service plane, pprof/runtime-trace capture of exactly the benched
// region, and a canonical BENCH_*.json artifact schema with a baseline
// regression gate.
//
// The package deliberately lives OUTSIDE atmlint's simulation scope
// (detflow): it is where wall-clock reads belong, and keeping
// the dependency direction one-way — perf imports the simulation, the
// simulation never imports perf — keeps the taint analysis able to
// prove the simulation itself never touches ambient time.
//
// Everything that lands in a checked-in artifact is split along one
// line: fields that are pure functions of (code, seed, iteration plan)
// go in the canonical sections and must be byte-identical across runs;
// fields that depend on the machine and the moment (ns/op, req/s,
// cpus) are quarantined in the single "timing" sub-object, which the
// determinism tests strip before comparing.
package perf

import "time"

// nowNS is the package's only wall-clock read path (profiled regions
// aside). Benchmark and flood timing flow through it.
func nowNS() int64 { return time.Now().UnixNano() }
