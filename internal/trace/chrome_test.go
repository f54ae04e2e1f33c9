package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"vscc/internal/sim"
)

// buildTestCapture records a small but representative sink: two
// processes, spans, an instant, counters and an awkward event name.
func buildTestCapture(t *testing.T) Capture {
	t.Helper()
	s := NewSink(sim.NewKernel())
	l0 := s.Track("noc", "link0")
	l1 := s.Track("noc", "link1")
	ct := s.Track("commtask", "d0")
	s.Span(l0, `xfer 64B "fast"`, 0, 40)
	s.Span(l1, "xfer 32B", 10, 30)
	s.Span(ct, "deliver", 5, 12)
	s.Instant(l0, `drop\retry`)
	s.Add("bytes", 96)
	s.Add("bytes", 64)
	s.Gauge("depth", 2)
	return Capture{Name: "test/size=0000064", Sink: s}
}

// The export must be valid JSON with the documented structure: metadata
// names every process and thread, spans become X events, instants i
// events, counters C events.
func TestWriteChromeProducesValidJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, []Capture{buildTestCapture(t)}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
			Ts   uint64 `json:"ts"`
			Dur  uint64 `json:"dur"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	counts := map[string]int{}
	for _, ev := range doc.TraceEvents {
		counts[ev.Ph]++
	}
	// 2 track process_name + 3 thread_name + the metrics process_name.
	if counts["M"] != 6 {
		t.Errorf("metadata events = %d, want 6", counts["M"])
	}
	if counts["X"] != 3 || counts["i"] != 1 {
		t.Errorf("spans/instants = %d/%d, want 3/1", counts["X"], counts["i"])
	}
	// bytes sampled twice, depth once.
	if counts["C"] != 3 {
		t.Errorf("counter events = %d, want 3", counts["C"])
	}
	// The quote and backslash in event names survived the round trip.
	var names []string
	for _, ev := range doc.TraceEvents {
		names = append(names, ev.Name)
	}
	joined := strings.Join(names, "\n")
	if !strings.Contains(joined, `xfer 64B "fast"`) || !strings.Contains(joined, `drop\retry`) {
		t.Errorf("escaped names did not round-trip:\n%s", joined)
	}
}

// Two encodes of the same captures must be byte-identical — the
// property the CI determinism gate builds on.
func TestWriteChromeDeterministic(t *testing.T) {
	caps := []Capture{buildTestCapture(t)}
	var a, b bytes.Buffer
	if err := WriteChrome(&a, caps); err != nil {
		t.Fatal(err)
	}
	if err := WriteChrome(&b, caps); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two encodes of the same captures differ")
	}
}

// Nil sinks (disabled points) and empty captures must not corrupt the
// document.
func TestWriteChromeSkipsNilSinks(t *testing.T) {
	var buf bytes.Buffer
	err := WriteChrome(&buf, []Capture{
		{Name: "disabled", Sink: nil},
		{Name: "empty", Sink: NewSink(sim.NewKernel())},
	})
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export with nil sinks is not valid JSON: %v", err)
	}
}

func TestQuoteJSONEscapes(t *testing.T) {
	for in, want := range map[string]string{
		"plain":      `"plain"`,
		`a"b`:        `"a\"b"`,
		`a\b`:        `"a\\b"`,
		"tab\there":  "\"tab\\u0009here\"",
		"nl\nthere":  "\"nl\\u000athere\"",
		"bell\x07up": "\"bell\\u0007up\"",
	} {
		if got := QuoteJSON(in); got != want {
			t.Errorf("QuoteJSON(%q) = %s, want %s", in, got, want)
		}
		var back string
		if err := json.Unmarshal([]byte(QuoteJSON(in)), &back); err != nil || back != in {
			t.Errorf("QuoteJSON(%q) does not round-trip: %v, %q", in, err, back)
		}
	}
}
