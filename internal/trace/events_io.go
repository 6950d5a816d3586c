package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// The raw event-log file format: a JSON object with a format marker and
// the events in record order. It is the lossless interchange format of
// cmd/tracetool; the Chrome trace-event export is for human inspection in
// Perfetto and is accepted as a (reconstructible) fallback.
const eventLogFormat = "repro/event-log/v1"

type eventLogFile struct {
	Format string  `json:"format"`
	Events []Event `json:"events"`
}

// WriteEvents emits the raw event log as JSON. The output is
// deterministic: events appear in record order with a fixed field layout,
// so identical runs produce bit-identical files.
func (r *Recorder) WriteEvents(w io.Writer) error {
	return writeEventLog(w, r.segments())
}

// writeEventLog emits a log held in consecutive segments.
func writeEventLog(w io.Writer, segs [][]Event) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "{\"format\":%q,\n\"events\":[", eventLogFormat); err != nil {
		return err
	}
	sep := "\n"
	for _, seg := range segs {
		for i := range seg {
			b, err := json.Marshal(&seg[i])
			if err != nil {
				return err
			}
			if _, err := bw.WriteString(sep); err != nil {
				return err
			}
			if _, err := bw.Write(b); err != nil {
				return err
			}
			sep = ",\n"
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// ParseEventKind resolves an EventKind from its String() name.
func ParseEventKind(s string) (EventKind, bool) {
	for k := EvSend; k <= EvFault; k++ {
		if k.String() == s {
			return k, true
		}
	}
	return 0, false
}

// ReadEvents parses an event log, auto-detecting the format: the raw
// event-log file WriteEvents produces, a bare JSON array of events, or a
// Chrome trace-event file as written by WriteChromeTrace (reconstructed
// from its args; kinds that the Chrome export does not tag are dropped
// with an error only if nothing is recognizable).
func ReadEvents(r io.Reader) ([]Event, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	// Bare array form.
	var arr []Event
	if err := json.Unmarshal(data, &arr); err == nil {
		return normalizeEvents(arr), nil
	}
	// Object forms: raw event log or Chrome trace.
	var probe struct {
		Format      string          `json:"format"`
		Events      []Event         `json:"events"`
		TraceEvents json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("trace: unrecognized event log: %w", err)
	}
	if probe.TraceEvents != nil {
		return readChromeEvents(probe.TraceEvents)
	}
	if probe.Events == nil {
		return nil, fmt.Errorf("trace: unrecognized event log: no events or traceEvents field")
	}
	if probe.Format != "" && probe.Format != eventLogFormat {
		return nil, fmt.Errorf("trace: unsupported event-log format %q (want %q)", probe.Format, eventLogFormat)
	}
	return normalizeEvents(probe.Events), nil
}

// readChromeEvents reconstructs the typed log from the Chrome trace-event
// export: Cat carries the kind, Tid the rank, args the wire metadata.
func readChromeEvents(raw json.RawMessage) ([]Event, error) {
	var ces []struct {
		Name string   `json:"name"`
		Cat  string   `json:"cat"`
		Ph   string   `json:"ph"`
		Ts   float64  `json:"ts"`
		Dur  *float64 `json:"dur"`
		Tid  int      `json:"tid"`
		Args struct {
			Bytes int64  `json:"bytes"`
			Peer  *int   `json:"peer"`
			Tag   *int   `json:"tag"`
			Comm  *int   `json:"comm"`
			Phase string `json:"phase"`
		} `json:"args"`
	}
	if err := json.Unmarshal(raw, &ces); err != nil {
		return nil, fmt.Errorf("trace: bad Chrome trace: %w", err)
	}
	const usec = 1e6
	opt := func(p *int) int {
		if p == nil {
			return -1
		}
		return *p
	}
	var out []Event
	for _, ce := range ces {
		if ce.Ph == "M" {
			continue // metadata (track names)
		}
		kind, ok := ParseEventKind(ce.Cat)
		if !ok {
			continue
		}
		ev := Event{
			Kind:  kind,
			Rank:  ce.Tid,
			Start: ce.Ts / usec,
			End:   ce.Ts / usec,
			Peer:  opt(ce.Args.Peer),
			Tag:   opt(ce.Args.Tag),
			Comm:  opt(ce.Args.Comm),
			Bytes: ce.Args.Bytes,
			Op:    ce.Name,
			Phase: ce.Args.Phase,
		}
		if ce.Dur != nil {
			ev.End = (ce.Ts + *ce.Dur) / usec
		}
		out = append(out, ev)
	}
	if len(ces) > 0 && len(out) == 0 {
		return nil, fmt.Errorf("trace: Chrome trace carries no recognizable events")
	}
	return normalizeEvents(out), nil
}

// normalizeEvents validates and orders a deserialized log: non-finite or
// inverted timestamps are rejected by clamping (End < Start becomes an
// instant at Start), and events are sorted chronologically by End then
// Start, the invariant the in-process Recorder maintains by construction.
func normalizeEvents(events []Event) []Event {
	for i := range events {
		if math.IsNaN(events[i].Start) || math.IsInf(events[i].Start, 0) {
			events[i].Start = 0
		}
		if math.IsNaN(events[i].End) || math.IsInf(events[i].End, 0) {
			events[i].End = events[i].Start
		}
		if events[i].End < events[i].Start {
			events[i].End = events[i].Start
		}
	}
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].End != events[j].End {
			return events[i].End < events[j].End
		}
		return events[i].Start < events[j].Start
	})
	return events
}
