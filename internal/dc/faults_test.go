package dc

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
)

func TestParseOpsProfilePresets(t *testing.T) {
	for _, name := range fault.SpecPresetNames(opsPresets) {
		p, err := ParseOpsProfile(name)
		if err != nil {
			t.Fatalf("preset %q: %v", name, err)
		}
		if name == "none" {
			if !p.Empty() {
				t.Fatalf("preset none parsed non-empty: %+v", p)
			}
			continue
		}
		if p.Empty() {
			t.Fatalf("preset %q parsed empty", name)
		}
	}
	if p, err := ParseOpsProfile(""); err != nil || !p.Empty() {
		t.Fatalf("empty spec = (%+v, %v), want empty profile", p, err)
	}
}

func TestParseOpsProfileOverridesAndErrors(t *testing.T) {
	p, err := ParseOpsProfile("flaky-links,grace=4,flap-ticks=9")
	if err != nil {
		t.Fatal(err)
	}
	if p.LinkFlaps != 2 || p.GraceTicks != 4 || p.FlapTicks != 9 {
		t.Fatalf("override parse = %+v", p)
	}
	for _, bad := range []string{
		"nope",                          // unknown preset
		"chip-deaths=1,ops-storm",       // preset not first
		"chip-deaths=x",                 // bad count
		"chip-deaths=-1",                // negative count
		"thermals=1,thermal-frac=1.5",   // excursion must land below idle
		"brownouts=1,brownout-frac=2",   // frac outside [0,1]
		"brownouts=1,brownout-frac=NaN", // NaN is no fraction
		"thermals=1,thermal-frac=nan",   // either spelling
		"wibble=3",                      // unknown key
	} {
		if _, err := ParseOpsProfile(bad); err == nil {
			t.Errorf("ParseOpsProfile(%q) accepted, want error", bad)
		}
	}
}

func TestOpsProfileStringRoundTrip(t *testing.T) {
	specs := append(fault.SpecPresetNames(opsPresets),
		"chip-deaths=2,link-flaps=1,grace=3",
		"brownouts=1,rack-brownouts=2,brownout-frac=0.4",
		"thermals=3,thermal-frac=0.25,thermal-ticks=9",
	)
	for _, spec := range specs {
		p, err := ParseOpsProfile(spec)
		if err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		q, err := ParseOpsProfile(p.String())
		if err != nil {
			t.Fatalf("round-trip parse of %q (from %q): %v", p.String(), spec, err)
		}
		if p != q {
			t.Fatalf("round trip of %q: %+v != %+v", spec, p, q)
		}
	}
	if got := (OpsProfile{}).String(); got != "none" {
		t.Fatalf("empty profile String() = %q, want none", got)
	}
}

func TestDrawOpsDeterministicAndBounded(t *testing.T) {
	o := Options{Racks: 2, ChassisPerRack: 2, ChipsPerChassis: 2, Ticks: 24}
	p, err := ParseOpsProfile("ops-storm,rack-brownouts=1")
	if err != nil {
		t.Fatal(err)
	}
	a := DrawOps(p, 7, o, nil)
	b := DrawOps(p, 7, o, nil)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("DrawOps is not deterministic for identical inputs")
	}
	if len(a) != 1+2+1+1+1 {
		t.Fatalf("schedule has %d events, want 6", len(a))
	}
	nChips := 2 * 2 * 2
	for i, ev := range a {
		if ev.Tick < 1 || ev.Tick > o.Ticks-1 {
			t.Fatalf("event %d tick %d outside [1,%d]", i, ev.Tick, o.Ticks-1)
		}
		switch ev.Kind {
		case OpsChipDeath, OpsLinkFlap, OpsThermal:
			if ev.Target < 0 || ev.Target >= nChips {
				t.Fatalf("event %d chip target %d out of range", i, ev.Target)
			}
		case OpsBrownout:
			if ev.Target < 0 || ev.Target >= 2*2 {
				t.Fatalf("event %d chassis target %d out of range", i, ev.Target)
			}
		case OpsRackBrownout:
			if ev.Target < 0 || ev.Target >= 2 {
				t.Fatalf("event %d rack target %d out of range", i, ev.Target)
			}
		}
		if i > 0 && a[i-1].Tick > ev.Tick {
			t.Fatal("schedule is not sorted by tick")
		}
	}
	if c := DrawOps(p, 8, o, nil); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds drew identical schedules")
	}
}

func TestDrawOpsRespectsLiveMask(t *testing.T) {
	o := Options{Racks: 1, ChassisPerRack: 1, ChipsPerChassis: 4, Ticks: 16}
	p := OpsProfile{ChipDeaths: 4, LinkFlaps: 4, Thermals: 4}
	live := []bool{false, true, true, true}
	for _, ev := range DrawOps(p, 3, o, live) {
		if ev.Target == 0 {
			t.Fatalf("chip-scoped event %v targeted a non-live chip", ev)
		}
	}
}

func TestOpsKindString(t *testing.T) {
	if OpsChipDeath.String() != "chip-death" || OpsKind(99).String() != "invalid" {
		t.Fatal("OpsKind.String mismatch")
	}
}

// FuzzOpsProfile fuzzes both profile grammars: every input goes to
// ParseOpsProfile and to fault.ParseProfile.
func FuzzOpsProfile(f *testing.F) {
	f.Add("ops-storm")
	f.Add("none")
	f.Add("chip-deaths=1,link-flaps=2,grace=3")
	f.Add("flaky-links,readmit=5")
	f.Add("thermals=2,thermal-frac=0.9")
	f.Add("brownouts=1,brownout-frac=0.5,brownout-ticks=3,rack-brownouts=2")
	f.Add("brownout-frac=NaN")
	f.Add("test-floor,broken=1")
	f.Add("trial-err=NaN")
	f.Fuzz(func(t *testing.T, spec string) {
		checkSpec(t, spec, ParseOpsProfile)
		checkSpec(t, spec, fault.ParseProfile)
	})
}

// checkSpec checks one fuzz input against a grammar: whatever parses
// must validate, render canonically without spaces, and round-trip to
// the identical profile.
func checkSpec[P interface {
	comparable
	Validate() error
	String() string
}](t *testing.T, spec string, parse func(string) (P, error)) {
	p, err := parse(spec)
	if err != nil {
		return
	}
	if verr := p.Validate(); verr != nil {
		t.Fatalf("parsed profile fails Validate: %v (spec %q)", verr, spec)
	}
	s := p.String()
	q, err := parse(s)
	if err != nil {
		t.Fatalf("canonical form %q does not re-parse: %v (spec %q)", s, err, spec)
	}
	if p != q {
		t.Fatalf("round trip diverged: %+v != %+v (spec %q, canonical %q)", p, q, spec, s)
	}
	if strings.Contains(s, " ") {
		t.Fatalf("canonical form contains spaces: %q", s)
	}
}

// TestSpecTagsComplete: every field of both profiles is an int or a
// float64 with a non-empty spec tag, unique within its profile. A field
// added without a key fails here instead of silently leaving the
// grammar.
func TestSpecTagsComplete(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeOf(fault.Profile{}), reflect.TypeOf(OpsProfile{})} {
		seen := map[string]string{}
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			key := f.Tag.Get("spec")
			switch {
			case f.Type.Kind() != reflect.Int && f.Type.Kind() != reflect.Float64:
				t.Errorf("%s.%s is a %s; the spec grammar parses only int and float64", typ, f.Name, f.Type)
			case key == "":
				t.Errorf("%s.%s has no spec tag", typ, f.Name)
			case seen[key] != "":
				t.Errorf("%s.%s reuses spec key %q of %s", typ, f.Name, key, seen[key])
			}
			seen[key] = f.Name
		}
	}
}

// specCorpus is the grammar corpus TestProfileSpecsGolden pins: for
// each of the two profile grammars, every preset, empty and whitespace
// specs, each key alone, presets with overrides, empty parts, and
// every error class, parse and Validate failures alike.
var specCorpus = []struct {
	grammar string
	specs   []string
}{
	{"fault", []string{
		"", "   ", "none", "test-floor", "flaky-fsp", "noisy-cpm", "broken-core",
		"cpm-upset=0.1", "cpm-upset-mag=2", "stuck=1", "telemetry=0.2",
		"drop=0.1", "garble=0.1", "trial-err=0.05", "broken=2",
		"cpm-upset=0,cpm-upset-mag=0", "trial-err=0,broken=0",
		"cpm-upset=0.1,cpm-upset-mag=7", "trial-err=0.1,broken=3",
		"test-floor,drop=0.3", "test-floor,trial-err=0.3", "test-floor,broken=1",
		"broken-core,trial-err=0",
		"none,drop=0.1", "none,trial-err=0.1",
		" test-floor , drop = 0.3 ", " test-floor , trial-err = 0.3 ",
		"drop=0.1,drop=0.2", "trial-err=0.1,trial-err=0.2",
		"test-floor,,drop=0.2", "test-floor,,trial-err=0.2", ",",
		",drop=0.1", ",trial-err=0.1", "drop=0.1,", "trial-err=0.1,",
		"drop=1e-3", "trial-err=1e-3", "drop=0x1p-2", "trial-err=0x1p-2",
		"drop=-0", "trial-err=-0", "broken=+1", "drop=1", "trial-err=1",
		"drop=0.5,garble=0.5",
		"nope", "drop", "trial-err", "drop=0.1,test-floor", "trial-err=0.1,test-floor",
		"test-floor,none", ",test-floor",
		"broken=x", "stuck=1.5", "broken=1.5", "broken=99999999999999999999",
		"drop=abc", "trial-err=abc", "drop=", "trial-err=", "drop==1", "trial-err==1",
		"wibble=1", "=1", "Drop=0.1", "Trial-err=0.1",
		"cpm-upset=2", "telemetry=-1", "trial-err=-1", "drop=1.5", "garble=1.1",
		"trial-err=1.01", "drop=0.6,garble=0.5", "cpm-upset-mag=-1",
		"stuck=-1", "broken=-1",
	}},
	{"dc", []string{
		"", "   ", "none", "ops-storm", "chip-death", "flaky-links", "brownout",
		"rack-brownout", "thermal",
		"chip-deaths=1", "link-flaps=1", "flap-ticks=3", "grace=4", "readmit=5",
		"brownouts=2", "rack-brownouts=1", "brownout-frac=0.3",
		"brownout-ticks=2", "thermals=1", "thermal-frac=0.25", "thermal-ticks=9",
		"flaky-links,grace=4,flap-ticks=9", "ops-storm,grace=4,brownout-frac=0.4",
		"ops-storm,rack-brownouts=1", "flaky-links,flap-ticks=9223372036854775807",
		"none,thermals=2", " brownout , brownout-ticks = 3 ", "thermals=1,thermals=3",
		"ops-storm,,grace=1", ",", ",chip-deaths=1", "chip-deaths=1,",
		"brownouts=1,brownout-frac=1", "brownouts=1,brownout-frac=0",
		"thermals=1,thermal-frac=1e-2", "brownout-frac=-0", "thermals=1,thermal-frac=-0",
		"nope", "grace", "chip-deaths=1,ops-storm", "ops-storm,none", ",thermal",
		"chip-deaths=x", "grace=1.5", "thermals=99999999999999999999",
		"brownout-frac=abc", "thermal-frac=", "wibble=3", "=1", "Grace=1",
		"chip-deaths=-1", "link-flaps=-1", "brownouts=-1", "rack-brownouts=-1",
		"thermals=-1", "flap-ticks=-1", "grace=-1", "readmit=-1",
		"brownout-ticks=-1", "thermal-ticks=-1",
		"brownouts=1,brownout-frac=2", "brownout-frac=-0.1",
		"thermals=1,thermal-frac=1", "thermals=1,thermal-frac=1.5",
		"thermal-frac=-0.5",
	}},
}

// rawFault and rawOps drop the profiles' String methods, so %+v
// prints their fields.
type (
	rawFault fault.Profile
	rawOps   OpsProfile
)

// TestProfileSpecsGolden pins both profile grammars across commits:
// for each corpus spec, the parsed profile's fields (%+v) and its
// canonical String, or the error text. Regenerate intentionally with:
//
//	go test ./internal/dc -run TestProfileSpecsGolden -update
func TestProfileSpecsGolden(t *testing.T) {
	var got bytes.Buffer
	line := func(grammar, spec string, p any, canon string, err error) {
		if err != nil {
			fmt.Fprintf(&got, "%s %q => error: %v\n", grammar, spec, err)
			return
		}
		fmt.Fprintf(&got, "%s %q => %+v | %s\n", grammar, spec, p, canon)
	}
	for _, c := range specCorpus {
		for _, spec := range c.specs {
			if c.grammar == "fault" {
				p, err := fault.ParseProfile(spec)
				line(c.grammar, spec, rawFault(p), p.String(), err)
				continue
			}
			p, err := ParseOpsProfile(spec)
			line(c.grammar, spec, rawOps(p), p.String(), err)
		}
	}
	path := filepath.Join("testdata", "profile-specs.golden")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("profile grammar drifted from its golden.\n--- got ---\n%s\n--- want ---\n%s", got.Bytes(), want)
	}
}
