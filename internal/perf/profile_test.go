package perf

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"testing"
)

// TestCaptureRoundTrip exercises Capture against the real runtime. The
// CPU profile may legitimately contain zero samples on a fast machine,
// so only the plumbing is asserted: each profile is a non-empty gzip
// stream (pprof's wire format, which `go tool pprof` decodes) and the
// trace is non-empty.
func TestCaptureRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c := Capture{
		CPUProfile: dir + "/cpu.pb.gz",
		MemProfile: dir + "/mem.pb.gz",
		Trace:      dir + "/trace.out",
	}
	if !c.Enabled() {
		t.Fatal("configured capture reports disabled")
	}
	if (Capture{}).Enabled() {
		t.Fatal("empty capture reports enabled")
	}
	stop, err := c.Start()
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has something to chew on.
	x := 0.0
	for i := 0; i < 1_000_000; i++ {
		x += float64(i % 7)
	}
	sinkF = x
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{c.CPUProfile, c.MemProfile} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: not a gzip stream: %v", path, err)
		}
		body, err := io.ReadAll(zr)
		if err != nil || len(body) == 0 {
			t.Errorf("%s: truncated or empty profile (%v)", path, err)
		}
	}
	if fi, err := os.Stat(c.Trace); err != nil || fi.Size() == 0 {
		t.Errorf("%s: missing or empty trace (%v)", c.Trace, err)
	}
}
