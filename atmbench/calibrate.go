package main

import (
	"math"
	"time"
)

// The host this benchmark runs on changes speed by up to 2× from one
// minute to the next (steal and co-tenant contention on a shared VM), so
// raw host times of identical work vary far more between runs than any
// regression worth catching. The untraced run therefore times a fixed
// calibration kernel next to every unit and every set-up and reports
// its timing metrics at the reference host speed: host time ×
// calibrationRefNS ÷ the calibration time measured around it. The
// kernel is the benchmark's own code, so a faster or slower program
// still moves the scaled numbers; only the host's speed cancels. Raw
// host readings print as host.* lines.

// calibrationSteps sizes one calibration sample (≈330 µs on the
// reference host).
const calibrationSteps = 16000

// calibrationRefNS is one calibration sample's time on the reference
// host (a 2-vCPU VM in its usual state); it fixes the scale of the
// reported timings.
const calibrationRefNS = 330000

// calibrationWindow is how many units' calibration samples, centred on
// a unit, scale its time; set-ups take this many samples beforehand.
const calibrationWindow = 16

var calibrationSink float64

// calibrate runs the calibration kernel once — splitmix64 draws, a log
// and a square root per step, the arithmetic the simulator's trial and
// noise models spend their time on — and returns its host time in ns.
func calibrate() int64 {
	start := time.Now()
	s := uint64(1)
	acc := 0.0
	for i := 0; i < calibrationSteps; i++ {
		s += 0x9E3779B97F4A7C15
		z := s
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		u := float64((z^(z>>31))>>11)/(1<<53) + 1e-12
		acc += math.Sqrt(-2 * math.Log(u))
	}
	calibrationSink = acc
	return time.Since(start).Nanoseconds()
}

// calibrateMean returns the mean of n calibration samples in ns.
func calibrateMean(n int) float64 {
	var sum int64
	for k := 0; k < n; k++ {
		sum += calibrate()
	}
	return float64(sum) / float64(n)
}

// scaleToReference converts each unit's host time to the reference
// host speed.
func scaleToReference(unitNS, calNS []float64) []float64 {
	out := make([]float64, len(unitNS))
	for i := range unitNS {
		out[i] = unitNS[i] * speedAt(calNS, i)
	}
	return out
}

// speedAt is the factor that converts unit i's host times to the
// reference host speed: calibrationRefNS ÷ the mean calibration time of
// the window of units centred on unit i.
func speedAt(calNS []float64, i int) float64 {
	lo := max(0, i-calibrationWindow/2)
	hi := min(len(calNS), lo+calibrationWindow)
	lo = max(0, hi-calibrationWindow)
	return calibrationRefNS / mean(calNS[lo:hi])
}
