package obs

import (
	"fmt"
	"html/template"
	"io"
	"math"
	"strings"

	"repro/internal/trace"
)

// WriteHTMLReport renders a snapshot as one self-contained HTML file:
// inline CSS and inline SVG, no external assets, so the artifact can be
// archived by CI or mailed around and still open anywhere. Sections:
// run summary, duration/size histograms, per-rank utilization, the
// fault/rung breakdown, and the flight-recorder tail.
func WriteHTMLReport(w io.Writer, title string, snap Snapshot) error {
	data := reportData{
		Title:    title,
		Snap:     snap,
		Makespan: fmt.Sprintf("%.6g", snap.Makespan),
	}
	for _, nh := range snap.Hists {
		if nh.Hist.Count == 0 {
			continue
		}
		data.Hists = append(data.Hists, histView{
			Name:  nh.Name,
			Stats: histStats(nh.Hist),
			SVG:   template.HTML(histSVG(nh.Hist)), //nolint:gosec // generated locally, numeric content only
		})
	}
	for _, rs := range snap.RankStats {
		data.RankBars = append(data.RankBars, rankBar{
			RankStat: rs,
			Pct:      math.Min(100, math.Max(0, rs.Utilization*100)),
			PctLabel: fmt.Sprintf("%.0f%%", rs.Utilization*100),
		})
	}
	for _, kv := range snap.Counters {
		switch {
		case strings.HasPrefix(kv.Key, "fault/"):
			data.Faults = append(data.Faults, kv)
		case strings.HasPrefix(kv.Key, "rung/"):
			data.Rungs = append(data.Rungs, kv)
		case strings.HasPrefix(kv.Key, "wire/"):
			data.Wire = append(data.Wire, kv)
		}
	}
	data.Anomalies = eventRows(snap.Anomalies)
	data.Recent = eventRows(snap.Recent)
	return reportTmpl.Execute(w, data)
}

type histView struct {
	Name  string
	Stats string
	SVG   template.HTML
}

type rankBar struct {
	RankStat
	Pct      float64
	PctLabel string
}

type eventRow struct {
	Kind, Op, Phase string
	Rank            int
	Start, End      string
	Bytes           int64
	Tag             int
}

type reportData struct {
	Title     string
	Snap      Snapshot
	Makespan  string
	Hists     []histView
	RankBars  []rankBar
	Faults    []KV
	Rungs     []KV
	Wire      []KV
	Anomalies []eventRow
	Recent    []eventRow
}

func eventRows(events []trace.Event) []eventRow {
	out := make([]eventRow, 0, len(events))
	for _, ev := range events {
		out = append(out, eventRow{
			Kind: ev.Kind.String(), Op: ev.Op, Phase: ev.Phase, Rank: ev.Rank,
			Start: fmt.Sprintf("%.6f", ev.Start), End: fmt.Sprintf("%.6f", ev.End),
			Bytes: ev.Bytes, Tag: ev.Tag,
		})
	}
	return out
}

func histStats(h HistSnapshot) string {
	return fmt.Sprintf("n=%d  p50=%.4g  p90=%.4g  p99=%.4g  min=%.4g  max=%.4g  mean=%.4g",
		h.Count, h.P50, h.P90, h.P99, h.Min, h.Max, h.Mean)
}

// histSVG renders one histogram as an inline SVG: one bar per non-empty
// bucket, positioned on a log-value x axis, height scaled by log count.
func histSVG(h HistSnapshot) string {
	const (
		width, height = 640, 120
		pad           = 4
	)
	var sb strings.Builder
	fmt.Fprintf(&sb, `<svg viewBox="0 0 %d %d" width="%d" height="%d" role="img">`,
		width, height, width, height)
	fmt.Fprintf(&sb, `<rect x="0" y="0" width="%d" height="%d" fill="#f7f7f8"/>`, width, height)

	// Value axis: log over the non-zero bucket range; the zero bucket
	// renders as a leftmost slot.
	var loV, hiV float64
	var maxN uint64
	hasZero := false
	for _, b := range h.Buckets {
		if b.Count > maxN {
			maxN = b.Count
		}
		if b.Hi == 0 {
			hasZero = true
			continue
		}
		if loV == 0 || b.Lo < loV {
			loV = b.Lo
		}
		if b.Hi > hiV {
			hiV = b.Hi
		}
	}
	if maxN == 0 {
		sb.WriteString(`</svg>`)
		return sb.String()
	}
	x0 := float64(pad)
	plotW := float64(width - 2*pad)
	zeroW := 0.0
	if hasZero {
		zeroW = 14
	}
	logLo, logHi := math.Log(loV), math.Log(hiV)
	xOf := func(v float64) float64 {
		if logHi <= logLo {
			return x0 + zeroW
		}
		return x0 + zeroW + (math.Log(v)-logLo)/(logHi-logLo)*(plotW-zeroW)
	}
	yOf := func(n uint64) float64 {
		frac := math.Log1p(float64(n)) / math.Log1p(float64(maxN))
		return frac * float64(height-2*pad)
	}
	for _, b := range h.Buckets {
		var bx, bw float64
		if b.Hi == 0 {
			bx, bw = x0, zeroW-2
		} else {
			bx = xOf(b.Lo)
			bw = xOf(b.Hi) - bx
			if bw < 1 {
				bw = 1
			}
		}
		bh := yOf(b.Count)
		fmt.Fprintf(&sb,
			`<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="#4a7aa7"><title>[%.4g, %.4g): %d</title></rect>`,
			bx, float64(height-pad)-bh, bw, bh, b.Lo, b.Hi, b.Count)
	}
	fmt.Fprintf(&sb, `<text x="%d" y="%d" font-size="9" fill="#555">%.3g</text>`, pad, height-pad+0, loV)
	fmt.Fprintf(&sb, `<text x="%d" y="%d" font-size="9" fill="#555" text-anchor="end">%.3g</text>`, width-pad, height-pad, hiV)
	sb.WriteString(`</svg>`)
	return sb.String()
}

var reportTmpl = template.Must(template.New("report").Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{{.Title}}</title>
<style>
body { font: 14px/1.45 system-ui, sans-serif; margin: 24px auto; max-width: 960px; color: #1c1c1e; }
h1 { font-size: 20px; } h2 { font-size: 16px; margin-top: 28px; border-bottom: 1px solid #ddd; padding-bottom: 4px; }
table { border-collapse: collapse; font-size: 13px; }
td, th { padding: 2px 10px; border-bottom: 1px solid #eee; text-align: left; font-variant-numeric: tabular-nums; }
.stats { color: #555; font-size: 12px; margin: 2px 0 8px; font-family: ui-monospace, monospace; }
.bar { background: #e8edf2; height: 12px; width: 220px; display: inline-block; vertical-align: middle; }
.bar > span { background: #4a7aa7; height: 12px; display: block; }
.muted { color: #777; }
</style>
</head>
<body>
<h1>{{.Title}}</h1>
<p class="muted">schema {{.Snap.Schema}} &middot; {{.Snap.Events}} events &middot; {{.Snap.Ranks}} ranks
&middot; makespan {{.Makespan}}s &middot; telemetry {{.Snap.TelemetryBytes}} bytes</p>

{{if .Hists}}<h2>Histograms</h2>
{{range .Hists}}<h3>{{.Name}}</h3><div class="stats">{{.Stats}}</div>{{.SVG}}
{{end}}{{end}}

{{if .RankBars}}<h2>Per-rank utilization</h2>
<table><tr><th>rank</th><th>utilization</th><th></th><th>busy (s)</th><th>sent</th><th>recv</th><th>bytes out</th><th>bytes in</th></tr>
{{range .RankBars}}<tr><td>{{.Rank}}</td>
<td><div class="bar"><span style="width: {{printf "%.1f" .Pct}}%"></span></div></td>
<td>{{.PctLabel}}</td><td>{{printf "%.4f" .Busy}}</td>
<td>{{.SendMsgs}}</td><td>{{.RecvMsgs}}</td><td>{{.SendBytes}}</td><td>{{.RecvBytes}}</td></tr>
{{end}}</table>{{end}}

{{if or .Faults .Rungs}}<h2>Fault &amp; recovery-rung breakdown</h2>
<table><tr><th>counter</th><th>count</th></tr>
{{range .Rungs}}<tr><td>{{.Key}}</td><td>{{.Value}}</td></tr>{{end}}
{{range .Faults}}<tr><td>{{.Key}}</td><td>{{.Value}}</td></tr>{{end}}
</table>{{end}}

{{if .Wire}}<h2>Wire traffic</h2>
<table><tr><th>counter</th><th>value</th></tr>
{{range .Wire}}<tr><td>{{.Key}}</td><td>{{.Value}}</td></tr>{{end}}
</table>{{end}}

{{if .Anomalies}}<h2>Flight recorder — anomalies</h2>
<table><tr><th>kind</th><th>op</th><th>rank</th><th>tag</th><th>phase</th><th>start</th><th>end</th></tr>
{{range .Anomalies}}<tr><td>{{.Kind}}</td><td>{{.Op}}</td><td>{{.Rank}}</td><td>{{.Tag}}</td><td>{{.Phase}}</td><td>{{.Start}}</td><td>{{.End}}</td></tr>{{end}}
</table>{{end}}

{{if .Recent}}<h2>Flight recorder — most recent events</h2>
<table><tr><th>kind</th><th>op</th><th>rank</th><th>bytes</th><th>phase</th><th>start</th><th>end</th></tr>
{{range .Recent}}<tr><td>{{.Kind}}</td><td>{{.Op}}</td><td>{{.Rank}}</td><td>{{.Bytes}}</td><td>{{.Phase}}</td><td>{{.Start}}</td><td>{{.End}}</td></tr>{{end}}
</table>{{end}}

</body>
</html>
`))
