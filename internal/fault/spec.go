package fault

// The one profile spec grammar, shared by every seeded disturbance
// profile in the repository: this package's Profile and the datacenter
// plane's dc.OpsProfile. A spec is an optional preset name, then
// comma-separated key=value overrides. Each key is the `spec` struct
// tag of an int field (a count) or a float64 field (a value); the
// canonical form lists the non-zero fields in declaration order.

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
)

// ParseSpec builds a P from spec: a preset name, key=value overrides,
// or a preset first with overrides after it. The empty spec and "none"
// are the zero profile. defaults fills dependent fields before
// Validate. Errors start "<pkg>: ", and kind qualifies the unknown
// preset and key errors ("unknown <kind>profile", "unknown <kind>key").
func ParseSpec[P interface{ Validate() error }](spec string, presets map[string]P,
	defaults func(P) P, pkg, kind string) (P, error) {
	var p, zero P
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return p, nil
	}
	v := reflect.ValueOf(&p).Elem()
	for i, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, val, ok := strings.Cut(part, "=")
		if !ok {
			base, known := presets[part]
			if !known {
				return zero, fmt.Errorf("%s: unknown %sprofile %q (have %s)",
					pkg, kind, part, strings.Join(SpecPresetNames(presets), ", "))
			}
			if i != 0 {
				return zero, fmt.Errorf("%s: preset %q must come first in %q", pkg, part, spec)
			}
			p = base
			continue
		}
		k, val = strings.TrimSpace(k), strings.TrimSpace(val)
		f := specField(v, k)
		if !f.IsValid() {
			return zero, fmt.Errorf("%s: unknown %skey %q (want %s)", pkg, kind, k, strings.Join(specKeys(v.Type()), ", "))
		}
		if f.Kind() == reflect.Int {
			n, err := strconv.Atoi(val)
			if err != nil {
				return zero, fmt.Errorf("%s: bad count %q for %s", pkg, val, k)
			}
			f.SetInt(int64(n))
		} else {
			x, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return zero, fmt.Errorf("%s: bad value %q for %s", pkg, val, k)
			}
			f.SetFloat(x)
		}
	}
	p = defaults(p)
	if err := p.Validate(); err != nil {
		return zero, err
	}
	return p, nil
}

// FormatSpec renders a profile struct as the canonical spec ParseSpec
// accepts: its non-zero fields in declaration order, ints with %d and
// floats with %v, or "none" when every field is zero.
func FormatSpec(p any) string {
	v := reflect.ValueOf(p)
	var parts []string
	for i := 0; i < v.NumField(); i++ {
		k := v.Type().Field(i).Tag.Get("spec")
		switch f := v.Field(i); {
		case f.Kind() == reflect.Int && f.Int() != 0:
			parts = append(parts, fmt.Sprintf("%s=%d", k, f.Int()))
		case f.Kind() == reflect.Float64 && f.Float() != 0:
			parts = append(parts, fmt.Sprintf("%s=%v", k, f.Float()))
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// SpecPresetNames lists a grammar's preset names in sorted order.
func SpecPresetNames[P any](presets map[string]P) []string {
	names := make([]string, 0, len(presets))
	for n := range presets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// specKeys returns the spec tag of each field of the struct type t.
func specKeys(t reflect.Type) []string {
	keys := make([]string, t.NumField())
	for i := range keys {
		keys[i] = t.Field(i).Tag.Get("spec")
	}
	return keys
}

// specField returns the field of the struct v tagged k, or the zero
// Value.
func specField(v reflect.Value, k string) reflect.Value {
	for i := 0; i < v.NumField(); i++ {
		if v.Type().Field(i).Tag.Get("spec") == k {
			return v.Field(i)
		}
	}
	return reflect.Value{}
}
