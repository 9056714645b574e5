package lint

import (
	"bytes"
	"strings"
	"testing"
)

// TestRepoClean wires atmlint into the tier-1 test path: the module
// must lint clean, so `go test ./...` fails the moment a determinism,
// unit-safety or error-hygiene violation lands anywhere in the tree.
func TestRepoClean(t *testing.T) {
	findings, err := Run(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	if len(findings) > 0 {
		t.Fatalf("%d finding(s); run `go run ./cmd/atmlint ./...` and fix or annotate them", len(findings))
	}
}

// TestDeterministicOutput runs the full analysis twice with fresh
// loaders and demands byte-identical rendered output — the linter that
// polices nondeterminism must not exhibit any (map-ordered package
// walks, unsorted findings).
func TestDeterministicOutput(t *testing.T) {
	render := func() (string, string) {
		findings, err := Run(".")
		if err != nil {
			t.Fatal(err)
		}
		var text, js bytes.Buffer
		if err := Render(&text, findings); err != nil {
			t.Fatal(err)
		}
		if err := RenderJSON(&js, findings); err != nil {
			t.Fatal(err)
		}
		return text.String(), js.String()
	}
	text1, js1 := render()
	text2, js2 := render()
	if text1 != text2 {
		t.Errorf("text output differs between runs:\n--- run 1\n%s\n--- run 2\n%s", text1, text2)
	}
	if js1 != js2 {
		t.Errorf("JSON output differs between runs:\n--- run 1\n%s\n--- run 2\n%s", js1, js2)
	}
	if !strings.HasPrefix(strings.TrimSpace(js1), "[") {
		t.Errorf("JSON output is not an array: %q", js1)
	}
}

// TestFixturesFailStandalone asserts RunDir (the driver's
// single-package mode) exits with findings on each fixture directory —
// the acceptance path `go run ./cmd/atmlint internal/lint/testdata/src/<rule>`.
func TestFixturesFailStandalone(t *testing.T) {
	for name := range fixtureCases {
		findings, err := RunDir("testdata/src/" + name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(findings) == 0 {
			t.Errorf("fixture %s: RunDir found nothing; atmlint would wrongly exit 0", name)
		}
	}
}
