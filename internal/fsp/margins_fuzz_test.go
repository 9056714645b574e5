package fsp

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

// refParseMargins is the margins parser Client.Margins used before it
// parsed in place, kept as parseMargins' reference: strings.Cut over
// the payload and strconv.ParseFloat for every value, rejecting a NaN
// or infinite one.
func refParseMargins(out string) ([]CoreMargin, error) {
	ms := make([]CoreMargin, 0, strings.Count(out, " ")+1)
	for rest := out; rest != ""; {
		var f string
		f, rest, _ = strings.Cut(rest, " ")
		if f == "" {
			continue
		}
		name, val, ok := strings.Cut(f, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("fsp: bad margins payload %q", out)
		}
		v, perr := strconv.ParseFloat(val, 64)
		if perr != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("fsp: bad margins payload %q", out)
		}
		ms = append(ms, CoreMargin{Core: name, Sigma: v})
	}
	return ms, nil
}

// FuzzMarginsPayload: the in-place parser accepts and rejects exactly
// the payloads the reference does, with the same error text, and gives
// equal labels and bit-equal sigmas — parsing into a fresh slice, into
// its own previous result (the label-reuse path) and into a slice
// holding other labels, which a rejected payload leaves as it was.
func FuzzMarginsPayload(f *testing.F) {
	var seeds []string
	milli := func(m int64) string { return string(appendMilli(nil, m)) }
	for _, m := range []int64{-999, -500, -100, -10, -1, 0} {
		seeds = append(seeds, "P0C0="+milli(m)+" P0C1="+milli(-m-1))
	}
	for k := int64(-3); k <= 3; k++ {
		seeds = append(seeds, "P0C0="+milli(1<<52+k)+" P1C7="+milli(-(1<<52)+k),
			"P0C0="+milli(1<<53+k)+" P1C7="+milli(-(1<<53)+k))
	}
	seeds = append(seeds,
		"", " ", "P0C0=-0.000", "P0C0=1.0000", "P0C0=+1.000", "P0C0=1e3",
		"P0C0=.500", "P0C0=-.500", "P0C0=1.", "P0C0=1.00", "P0C0=-", "P0C0=",
		"P0C0=NaN", "P0C0=inf", "P0C0=0x1p-2", "P0C0=1_000.000", "P0C0=999999999999999.999",
		"P0C0", "=1.000", "P0C0==1.000", "P0C0=1.000 P0C1",
		"P0C0=1.000  P0C1=2.000", "P0C0=1.000 ", " P0C0=1.000", "P0C0=1.000\tP0C1=2.000",
		"Ж=1.000 P0C0=２.000", "P0C0=1.000 \xff=2.000",
	)
	for _, s := range seeds {
		f.Add(s)
	}
	same := func(got []CoreMargin, gerr error, want []CoreMargin, werr error) error {
		if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
			return fmt.Errorf("error %v, reference %v", gerr, werr)
		}
		if len(got) != len(want) {
			return fmt.Errorf("%d margins, reference %d", len(got), len(want))
		}
		for i := range got {
			if got[i].Core != want[i].Core || math.Float64bits(got[i].Sigma) != math.Float64bits(want[i].Sigma) {
				return fmt.Errorf("margin %d = %q %v, reference %q %v", i, got[i].Core, got[i].Sigma, want[i].Core, want[i].Sigma)
			}
		}
		return nil
	}
	f.Fuzz(func(t *testing.T, payload string) {
		want, werr := refParseMargins(payload)
		fresh, err := parseMargins(nil, []byte(payload))
		if e := same(fresh, err, want, werr); e != nil {
			t.Fatalf("payload %q, fresh slice: %v", payload, e)
		}
		again, err := parseMargins(fresh, []byte(payload))
		if e := same(again, err, want, werr); e != nil {
			t.Fatalf("payload %q, reused slice: %v", payload, e)
		}
		other := []CoreMargin{{Core: "P9C9", Sigma: 1}, {Core: "", Sigma: 2}, {Core: "x", Sigma: 3}}
		mixed, err := parseMargins(other[:1], []byte(payload))
		if e := same(mixed, err, want, werr); e != nil {
			t.Fatalf("payload %q, slice with other labels: %v", payload, e)
		}
		if err != nil && other[0] != (CoreMargin{Core: "P9C9", Sigma: 1}) {
			t.Fatalf("payload %q: a rejected payload changed dst to %v", payload, other[0])
		}
	})
}
