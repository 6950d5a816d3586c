package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// chromeEvent is one entry of the Chrome trace-event format ("JSON Object
// Format"), loadable in Perfetto and chrome://tracing. Timestamps are in
// microseconds; the simulator's virtual seconds are scaled by 1e6.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant-event scope
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace renders the event log in the Chrome trace-event JSON
// format with one track (tid) per rank: spans become complete ("X")
// events, instants become instant ("i") events, and a metadata event names
// each rank's track.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	return writeChromeTrace(w, r.segments())
}

// writeChromeTrace renders a log held in consecutive segments.
func writeChromeTrace(w io.Writer, segs [][]Event) error {
	const usec = 1e6
	out := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}

	ranks := map[int]bool{}
	for _, seg := range segs {
		for _, ev := range seg {
			ranks[ev.Rank] = true
		}
	}
	ids := make([]int, 0, len(ranks))
	for id := range ranks {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: id,
			Args: map[string]any{"name": fmt.Sprintf("rank g%d", id)},
		})
	}

	for _, seg := range segs {
		for _, ev := range seg {
			name := ev.Op
			if name == "" {
				name = ev.Kind.String()
			}
			args := map[string]any{"bytes": ev.Bytes}
			if ev.Peer >= 0 {
				args["peer"] = ev.Peer
			}
			if ev.Tag >= 0 {
				args["tag"] = ev.Tag
			}
			if ev.Comm >= 0 {
				args["comm"] = ev.Comm
			}
			if ev.Phase != "" {
				args["phase"] = ev.Phase
			}
			ce := chromeEvent{
				Name: name,
				Cat:  ev.Kind.String(),
				Ts:   ev.Start * usec,
				Pid:  0,
				Tid:  ev.Rank,
				Args: args,
			}
			if ev.End > ev.Start {
				dur := (ev.End - ev.Start) * usec
				ce.Ph = "X"
				ce.Dur = &dur
			} else {
				ce.Ph = "i"
				ce.S = "t"
			}
			out.TraceEvents = append(out.TraceEvents, ce)
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
