package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestTracerSpansAndClock(t *testing.T) {
	tr := NewTracer()
	sp := tr.Begin("charact", "trial", "EP00") // ts=1
	sp.Arg("workload", "idle")
	tr.Instant("fault", "upset", "EP00") // ts=2
	sp.End()                             // end=3, dur=2

	var b bytes.Buffer
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Cat  string            `json:"cat"`
			Ph   string            `json:"ph"`
			TS   int64             `json:"ts"`
			Dur  int64             `json:"dur"`
			PID  int64             `json:"pid"`
			TID  int64             `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("trace not valid JSON: %v\n%s", err, b.String())
	}
	if len(doc.TraceEvents) != 3 { // metadata + instant + span
		t.Fatalf("got %d events, want 3: %s", len(doc.TraceEvents), b.String())
	}
	meta := doc.TraceEvents[0]
	if meta.Ph != "M" || meta.Args["name"] != "EP00" {
		t.Fatalf("first event is not thread_name metadata for EP00: %+v", meta)
	}
	inst := doc.TraceEvents[1]
	if inst.Ph != "i" || inst.Name != "upset" || inst.TS != 2 {
		t.Fatalf("instant event wrong: %+v", inst)
	}
	span := doc.TraceEvents[2]
	if span.Ph != "X" || span.TS != 1 || span.Dur != 2 || span.Args["workload"] != "idle" {
		t.Fatalf("span event wrong: %+v", span)
	}
}

func TestTracerSetTimeMonotone(t *testing.T) {
	tr := NewTracer()
	tr.SetTimeUS(1000)
	tr.SetTimeUS(500) // backwards: ignored
	sp := tr.Begin("x", "y", "t")
	sp.End()
	var b bytes.Buffer
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"ts":1001`) {
		t.Fatalf("span did not start after SetTimeUS(1000): %s", b.String())
	}
}

func TestTracerComplete(t *testing.T) {
	tr := NewTracer()
	tr.Complete("sched", "job-1", "core-0", 2_000_000, 3_000_000, "class", "batch")
	tr.Instant("sched", "done", "core-0") // must land after the span
	var b bytes.Buffer
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	s := b.String()
	if !strings.Contains(s, `"ts":2000000,"dur":3000000`) {
		t.Fatalf("complete span timestamps wrong: %s", s)
	}
	if !strings.Contains(s, `"ts":5000001`) {
		t.Fatalf("instant not ordered after complete span: %s", s)
	}
}

func TestTracerTrackOrderDeterministic(t *testing.T) {
	emit := func() []byte {
		tr := NewTracer()
		for _, track := range []string{"EP03", "EP00", "fsp", "EP03"} {
			tr.Instant("t", "e", track)
		}
		var b bytes.Buffer
		if err := tr.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	a, bb := emit(), emit()
	if !bytes.Equal(a, bb) {
		t.Fatalf("trace files differ across identical runs:\n%s\n%s", a, bb)
	}
	// First-use order: EP03 → tid 1, EP00 → 2, fsp → 3.
	if !strings.Contains(string(a), `"tid":1,"args":{"name":"EP03"}`) {
		t.Fatalf("track tids not in first-use order: %s", a)
	}
}

func TestNilTracer(t *testing.T) {
	var tr *Tracer
	sp := tr.Begin("a", "b", "c")
	sp.Arg("k", "v")
	sp.End()
	tr.Instant("a", "b", "c")
	tr.Complete("a", "b", "c", 1, 2)
	tr.SetTimeUS(5)
	var b bytes.Buffer
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != `{"traceEvents":[]}`+"\n" {
		t.Fatalf("nil tracer WriteJSON = %q", got)
	}
}
