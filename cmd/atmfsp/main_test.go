package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"
)

// transcript is one documented `$ printf '<script>' | atmfsp` example
// and the lines shown after it.
type transcript struct {
	script, want string
}

var printfLine = regexp.MustCompile(`^\$ printf '([^']*)' \| atmfsp$`)

// transcripts collects the examples in lines. Each runs to the first
// blank line or code fence after its command.
func transcripts(lines []string) []transcript {
	var out []transcript
	for i := 0; i < len(lines); i++ {
		m := printfLine.FindStringSubmatch(lines[i])
		if m == nil {
			continue
		}
		tr := transcript{script: strings.ReplaceAll(m[1], `\n`, "\n")}
		for i++; i < len(lines) && lines[i] != "" && lines[i] != "```"; i++ {
			tr.want += lines[i] + "\n"
		}
		out = append(out, tr)
	}
	return out
}

// docLines reads path with each line's comment marker and indent
// stripped, so a Go doc comment reads like a README code block.
func docLines(t *testing.T, path string) []string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(raw), "\n")
	for i, l := range lines {
		lines[i] = strings.TrimPrefix(strings.TrimPrefix(l, "//"), "\t")
	}
	return lines
}

// TestDocumentedSessions replays the package doc's session and
// README's health example on stdio and compares stdout byte for byte.
func TestDocumentedSessions(t *testing.T) {
	trs := append(transcripts(docLines(t, "main.go")), transcripts(docLines(t, "../../README.md"))...)
	if len(trs) != 2 {
		t.Fatalf("found %d documented sessions, want the package doc's and README's", len(trs))
	}
	for _, tr := range trs {
		var stdout, stderr bytes.Buffer
		if code := run(nil, strings.NewReader(tr.script), &stdout, &stderr); code != 0 {
			t.Fatalf("%q: exit %d, stderr %q", tr.script, code, stderr.String())
		}
		if got := stdout.String(); got != tr.want {
			t.Errorf("%q: stdout\n%s\nwant, as documented,\n%s", tr.script, got, tr.want)
		}
	}
}

// TestUsageErrors: an unknown flag, the removed -accept-burst among
// them, is exit 2 before any session runs.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{{"-accept-burst", "3"}, {"-no-such-flag"}, {"-max-sessions", "x"}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, strings.NewReader("ping\n"), &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: a session ran: %q", args, stdout.String())
		}
	}
}
