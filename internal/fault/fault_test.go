package fault

import (
	"strings"
	"testing"
)

func TestParsePresets(t *testing.T) {
	for _, name := range PresetNames() {
		p, err := ParseProfile(name)
		if err != nil {
			t.Fatalf("ParseProfile(%q): %v", name, err)
		}
		if name == "none" && !p.Empty() {
			t.Errorf("none parsed non-empty: %+v", p)
		}
		if name != "none" && p.Empty() {
			t.Errorf("%s parsed empty", name)
		}
	}
	if _, err := ParseProfile("no-such-profile"); err == nil {
		t.Error("unknown preset accepted")
	}
}

func TestParseKeyValues(t *testing.T) {
	p, err := ParseProfile("trial-err=0.1,broken=2")
	if err != nil {
		t.Fatal(err)
	}
	if p.TrialErrProb != 0.1 || p.BrokenCores != 2 {
		t.Errorf("parsed %+v", p)
	}
}

func TestParsePresetWithOverride(t *testing.T) {
	base, err := ParseProfile("test-floor")
	if err != nil {
		t.Fatal(err)
	}
	p, err := ParseProfile("test-floor,broken=3")
	if err != nil {
		t.Fatal(err)
	}
	if p.BrokenCores != 3 {
		t.Errorf("override ignored: %+v", p)
	}
	if p.TrialErrProb != base.TrialErrProb {
		t.Errorf("preset fields lost: %+v", p)
	}
	// A preset anywhere but first is ambiguous and must be rejected.
	if _, err := ParseProfile("broken=3,test-floor"); err == nil {
		t.Error("late preset accepted")
	}
}

func TestParseRejectsBadValues(t *testing.T) {
	for _, spec := range []string{
		"trial-err=1.5",  // probability above 1
		"trial-err=-0.1", // negative probability
		"broken=-1",      // negative count
		"bogus=1",        // unknown key
		"trial-err=abc",  // unparsable value
		"trial-err=NaN",  // NaN is no probability
		"trial-err=nan",  // either spelling
	} {
		if _, err := ParseProfile(spec); err == nil {
			t.Errorf("ParseProfile(%q) accepted", spec)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	for _, name := range PresetNames() {
		p, err := ParseProfile(name)
		if err != nil {
			t.Fatal(err)
		}
		spec := p.String()
		back, err := ParseProfile(spec)
		if err != nil {
			t.Fatalf("%s: re-parse %q: %v", name, spec, err)
		}
		if back != p {
			t.Errorf("%s: %q round-tripped to %+v, want %+v", name, spec, back, p)
		}
	}
	if s := (Profile{}).String(); s != "none" {
		t.Errorf("empty profile renders %q", s)
	}
	if s := (Profile{TrialErrProb: 0.5}).String(); !strings.Contains(s, "trial-err=0.5") {
		t.Errorf("trial-err profile renders %q", s)
	}
}
