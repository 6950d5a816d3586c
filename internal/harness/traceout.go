package harness

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
)

// WriteTraceFiles exports one recorded run: <prefix>.events.json holds the
// raw event log (the cmd/tracetool input), <prefix>.json the Chrome
// trace-event file (open it at https://ui.perfetto.dev or
// chrome://tracing), <prefix>.metrics.json and <prefix>.metrics.csv the
// derived counters.
func WriteTraceFiles(rec *trace.Recorder, prefix string) error {
	if err := writeTo(prefix+".events.json", rec.WriteEvents); err != nil {
		return err
	}
	if err := writeTo(prefix+".json", rec.WriteChromeTrace); err != nil {
		return err
	}
	m := rec.Metrics()
	if err := writeTo(prefix+".metrics.json", m.WriteJSON); err != nil {
		return err
	}
	return writeTo(prefix+".metrics.csv", m.WriteCSV)
}

// writeTo creates path, runs write, and closes. A failing write or close
// removes the partial file: callers never find a truncated artifact where
// a complete one was promised.
func writeTo(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(path)
		return err
	}
	return nil
}

// CellMetrics pairs one sweep cell with the metrics derived from a traced
// repetition.
type CellMetrics struct {
	Key CellKey
	M   trace.RunMetrics
}

// SweepMetricsTraced runs one traced repetition (seed index rep) of every
// (pair, config) cell and returns the derived per-cell metrics, reusing
// recorders across cells, plus the raw event log of the last cell for
// export through WriteTraceFiles. progress, when non-nil, receives one
// line per completed cell.
func (s Setup) SweepMetricsTraced(pairs []Pair, configs []core.Config, rep int, progress func(string)) ([]CellMetrics, *trace.Recorder, error) {
	return s.sweepMetrics(pairs, configs, rep, progress, true)
}

// recorderPool recycles trace recorders — and their event chunks — across
// sweep cells and workers, so a traced sweep does not allocate fresh
// chunks per cell.
var recorderPool = sync.Pool{New: func() any { return trace.NewRecorder() }}

func (s Setup) sweepMetrics(pairs []Pair, configs []core.Config, rep int, progress func(string), keepLast bool) ([]CellMetrics, *trace.Recorder, error) {
	if len(pairs) == 0 || len(configs) == 0 {
		return nil, nil, nil
	}
	n := len(pairs) * len(configs)
	out := make([]CellMetrics, n)
	var (
		lastMu  sync.Mutex
		lastRec *trace.Recorder
		walls   []time.Duration
		streams []*obs.Stream
	)
	if s.Obs != nil {
		walls = make([]time.Duration, n)
		streams = make([]*obs.Stream, n)
	}
	err := ForEach(n, s.Workers, func(i int) error {
		p, cfg := pairs[i/len(configs)], configs[i%len(configs)]
		key := CellKey{Pair: p, Config: cfg}
		rec := recorderPool.Get().(*trace.Recorder)
		rec.Reset()
		var stream *obs.Stream
		var t0 time.Time
		if s.Obs != nil {
			stream = getStream()
			streams[i] = stream
			t0 = time.Now()
		}
		_, err := s.runCell(p, cfg, rep, rec, cellSink(stream))
		if s.Obs != nil {
			walls[i] = time.Since(t0)
		}
		if err != nil {
			recorderPool.Put(rec)
			return fmt.Errorf("harness: traced %s rep %d: %w", key, rep, err)
		}
		// Metrics are derived per cell inside the worker, so only the last
		// cell's raw event log (when requested) outlives its run.
		out[i] = CellMetrics{Key: key, M: rec.Metrics()}
		if keepLast && i == n-1 {
			lastMu.Lock()
			lastRec = rec
			lastMu.Unlock()
		} else {
			recorderPool.Put(rec)
		}
		return nil
	}, func(i int) {
		if s.Obs != nil {
			s.Obs.CellDone(CellStats{Wall: walls[i], Survived: true, MaxRung: -1, Stream: streams[i]})
			streams[i] = nil
		}
		if progress != nil {
			m := out[i].M
			progress(fmt.Sprintf("%-28s bytes(const/var)=%d/%d msgs=%d/%d overlap=%.2f",
				out[i].Key, m.BytesConst, m.BytesVar, m.MsgsConst, m.MsgsVar, m.OverlapEfficiency))
		}
	})
	if err != nil {
		return nil, nil, err
	}
	return out, lastRec, nil
}

// WriteMetricsCSV writes one row of redistribution metrics per traced cell.
func WriteMetricsCSV(w io.Writer, cells []CellMetrics) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"ns", "nt", "config",
		"bytes_const", "bytes_var", "msgs_const", "msgs_var", "overlap_efficiency",
		"t_spawn", "t_redist_const", "t_redist_var", "t_halt",
	}); err != nil {
		return err
	}
	g := func(x float64) string { return fmt.Sprintf("%.9g", x) }
	for _, c := range cells {
		if err := cw.Write([]string{
			fmt.Sprint(c.Key.Pair.NS), fmt.Sprint(c.Key.Pair.NT), c.Key.Config.String(),
			fmt.Sprint(c.M.BytesConst), fmt.Sprint(c.M.BytesVar),
			fmt.Sprint(c.M.MsgsConst), fmt.Sprint(c.M.MsgsVar),
			g(c.M.OverlapEfficiency),
			g(c.M.TSpawn), g(c.M.TRedistConst), g(c.M.TRedistVar), g(c.M.THalt),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
