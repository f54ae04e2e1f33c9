// chrome.go exports recorded sinks in the Chrome trace-event JSON format
// (the "trace event format" consumed by about://tracing and Perfetto).
// Timestamps are simulated core cycles written as integer microseconds —
// one displayed microsecond is one 533 MHz core cycle — which keeps the
// encoder float-free and the output byte-reproducible.
package trace

import (
	"bufio"
	"fmt"
	"io"
)

// WriteChrome writes the captures as one Chrome trace-event JSON
// document. Each capture becomes a group of processes: one pid per
// distinct track process name plus, when counters were recorded, one
// "metrics" pid carrying the counter time series. Output is a pure
// function of the recorded events, so two deterministic runs export
// byte-identical documents.
func WriteChrome(w io.Writer, caps []Capture) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"displayTimeUnit\":\"ms\",\n")
	bw.WriteString("\"otherData\":{\"clock\":\"simulated core cycles (1 us = 1 cycle at 533 MHz)\"},\n")
	bw.WriteString("\"traceEvents\":[\n")
	first := true
	emit := func(line string) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		bw.WriteString(line)
	}
	nextPid := 0
	for _, cap := range caps {
		s := cap.Sink
		if s == nil {
			continue
		}
		// One pid per distinct process name, in track-registration order.
		pidOf := make([]int, len(s.tracks))
		procPid := map[string]int{}
		tidOf := make([]int, len(s.tracks))
		procTids := map[string]int{}
		for i, tr := range s.tracks {
			pid, ok := procPid[tr.process]
			if !ok {
				pid = nextPid
				nextPid++
				procPid[tr.process] = pid
				name := tr.process
				if cap.Name != "" {
					name = cap.Name + "/" + tr.process
				}
				emit(fmt.Sprintf("{\"ph\":\"M\",\"pid\":%d,\"name\":\"process_name\",\"args\":{\"name\":%s}}",
					pid, QuoteJSON(name)))
			}
			pidOf[i] = pid
			tidOf[i] = procTids[tr.process]
			procTids[tr.process]++
			emit(fmt.Sprintf("{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":%s}}",
				pid, tidOf[i], QuoteJSON(tr.thread)))
		}
		for _, sp := range s.spans {
			pid, tid := pidOf[sp.track], tidOf[sp.track]
			if sp.instant {
				emit(fmt.Sprintf("{\"ph\":\"i\",\"pid\":%d,\"tid\":%d,\"ts\":%d,\"s\":\"t\",\"name\":%s}",
					pid, tid, uint64(sp.from), QuoteJSON(sp.name)))
				continue
			}
			emit(fmt.Sprintf("{\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%d,\"dur\":%d,\"name\":%s}",
				pid, tid, uint64(sp.from), uint64(sp.to-sp.from), QuoteJSON(sp.name)))
		}
		if len(s.samples) > 0 {
			pid := nextPid
			nextPid++
			name := "metrics"
			if cap.Name != "" {
				name = cap.Name + "/metrics"
			}
			emit(fmt.Sprintf("{\"ph\":\"M\",\"pid\":%d,\"name\":\"process_name\",\"args\":{\"name\":%s}}",
				pid, QuoteJSON(name)))
			for _, cs := range s.samples {
				emit(fmt.Sprintf("{\"ph\":\"C\",\"pid\":%d,\"ts\":%d,\"name\":%s,\"args\":{\"value\":%d}}",
					pid, uint64(cs.at), QuoteJSON(cs.name), cs.value))
			}
		}
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// QuoteJSON returns s as a quoted JSON string. Track and event names are
// plain ASCII identifiers in practice; quotes, backslashes and control
// characters are escaped for safety.
func QuoteJSON(s string) string {
	buf := make([]byte, 0, len(s)+2)
	buf = append(buf, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			buf = append(buf, '\\', c)
		case c < 0x20:
			buf = append(buf, fmt.Sprintf("\\u%04x", c)...)
		default:
			buf = append(buf, c)
		}
	}
	return string(append(buf, '"'))
}
