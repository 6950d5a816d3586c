// Package trace is the Monitoring module of the synthetic application: it
// collects named spans (module, phase, start/end in virtual time) and
// counters per rank, and writes them as the intermediate output files the
// original tool produces when each level of the process hierarchy
// finalizes (CSV or JSON).
//
// The collector is single-threaded by construction: the simulation kernel
// runs one process at a time, so no locking is needed.
package trace

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// Span is one timed region of a rank's execution.
type Span struct {
	Module string  `json:"module"` // e.g. "application", "malleability"
	Name   string  `json:"name"`   // e.g. "steady-phase", "reconfig-0"
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
}

// Duration returns the span length.
func (s Span) Duration() float64 { return s.End - s.Start }

// RankLog accumulates one rank's spans and counters.
type RankLog struct {
	Rank     int                `json:"rank"`
	Spans    []Span             `json:"spans"`
	Counters map[string]float64 `json:"counters,omitempty"`
}

// Add increments a named counter.
func (rl *RankLog) Add(counter string, v float64) {
	if rl.Counters == nil {
		rl.Counters = map[string]float64{}
	}
	rl.Counters[counter] += v
}

// Open starts a span; close it with the returned function, passing the end
// time.
func (rl *RankLog) Open(module, name string, start float64) func(end float64) {
	idx := len(rl.Spans)
	rl.Spans = append(rl.Spans, Span{Module: module, Name: name, Start: start, End: start})
	return func(end float64) { rl.Spans[idx].End = end }
}

// Record appends a completed span directly.
func (rl *RankLog) Record(module, name string, start, end float64) {
	rl.Spans = append(rl.Spans, Span{Module: module, Name: name, Start: start, End: end})
}

// Monitor collects per-rank logs for one run.
type Monitor struct {
	ranks map[int]*RankLog
}

// NewMonitor returns an empty collector.
func NewMonitor() *Monitor {
	return &Monitor{ranks: map[int]*RankLog{}}
}

// Rank returns (creating if needed) the log of one rank. Ranks are
// identified by a caller-chosen id; the synthetic application uses the
// process's world-unique id so respawned ranks stay distinct.
func (m *Monitor) Rank(r int) *RankLog {
	rl, ok := m.ranks[r]
	if !ok {
		rl = &RankLog{Rank: r}
		m.ranks[r] = rl
	}
	return rl
}

// Ranks returns all logs ordered by rank id.
func (m *Monitor) Ranks() []*RankLog {
	out := make([]*RankLog, 0, len(m.ranks))
	for _, rl := range m.ranks {
		out = append(out, rl)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rank < out[j].Rank })
	return out
}

// CounterNames returns the rank's counter names sorted alphabetically,
// so every map-keyed emission path is deterministic.
func (rl *RankLog) CounterNames() []string {
	names := make([]string, 0, len(rl.Counters))
	for name := range rl.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// WriteCSV emits one row per span (rank,module,name,start,end,duration)
// followed, for ranks that have counters, by one row per counter
// (rank,counter,name,value,,) with names in sorted order — byte-identical
// output for the same run whatever map iteration order Go picks. Fields
// are escaped per RFC 4180, so module or span names containing commas or
// quotes survive a round-trip.
func (m *Monitor) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"rank", "module", "name", "start", "end", "duration"}); err != nil {
		return err
	}
	g := func(x float64) string { return fmt.Sprintf("%.9g", x) }
	for _, rl := range m.Ranks() {
		for _, s := range rl.Spans {
			err := cw.Write([]string{
				strconv.Itoa(rl.Rank), s.Module, s.Name,
				g(s.Start), g(s.End), g(s.Duration()),
			})
			if err != nil {
				return err
			}
		}
	}
	for _, rl := range m.Ranks() {
		for _, name := range rl.CounterNames() {
			err := cw.Write([]string{
				strconv.Itoa(rl.Rank), "counter", name,
				g(rl.Counters[name]), "", "",
			})
			if err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// SummaryRow aggregates one (module, name) across ranks.
type SummaryRow struct {
	Module, Name   string
	Count          int
	Total          float64
	Mean, Min, Max float64
}

// Summary aggregates span durations by (module, name), ordered
// alphabetically.
func (m *Monitor) Summary() []SummaryRow {
	type key struct{ mod, name string }
	acc := map[key]*SummaryRow{}
	for _, rl := range m.Ranks() {
		for _, s := range rl.Spans {
			k := key{s.Module, s.Name}
			row, ok := acc[k]
			if !ok {
				row = &SummaryRow{Module: s.Module, Name: s.Name, Min: s.Duration(), Max: s.Duration()}
				acc[k] = row
			}
			d := s.Duration()
			row.Count++
			row.Total += d
			if d < row.Min {
				row.Min = d
			}
			if d > row.Max {
				row.Max = d
			}
		}
	}
	out := make([]SummaryRow, 0, len(acc))
	for _, row := range acc {
		row.Mean = row.Total / float64(row.Count)
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Module != out[j].Module {
			return out[i].Module < out[j].Module
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// WriteSummary renders the aggregate table. Output is buffered: the table
// is one small write per row.
func (m *Monitor) WriteSummary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%-14s %-16s %6s %10s %10s %10s %10s\n",
		"module", "name", "count", "total", "mean", "min", "max"); err != nil {
		return err
	}
	for _, r := range m.Summary() {
		if _, err := fmt.Fprintf(bw, "%-14s %-16s %6d %10.4f %10.4f %10.4f %10.4f\n",
			r.Module, r.Name, r.Count, r.Total, r.Mean, r.Min, r.Max); err != nil {
			return err
		}
	}
	return bw.Flush()
}
