package trace

// window is the [earliest start, latest end] envelope of the events grown
// into it; set is false until the first one.
type window struct {
	lo, hi float64
	set    bool
}

func (w *window) grow(start, end float64) {
	if !w.set || start < w.lo {
		w.lo = start
	}
	if !w.set || end > w.hi {
		w.hi = end
	}
	w.set = true
}

// PhaseWindow is a Sink that locates one reconfiguration phase's window as
// the events arrive, without keeping the log: the [earliest start, latest
// end] of the EvPhase spans whose Op is Phase. When those spans give no
// window with hi > lo — Baseline RMA sources leave the variable epoch at
// window creation, so their spans are instants while the spawned targets
// (which only tag traffic) do the pulling — the window widens to the
// envelope of the non-phase events tagged with Phase. Minimum and maximum
// do not depend on arrival order, so the result equals a scan of the full
// log.
type PhaseWindow struct {
	Phase string

	spans, tagged window
}

// Record implements Sink.
func (p *PhaseWindow) Record(ev Event) {
	if ev.Kind == EvPhase {
		if ev.Op == p.Phase {
			p.spans.grow(ev.Start, ev.End)
		}
	} else if ev.Phase == p.Phase {
		p.tagged.grow(ev.Start, ev.End)
	}
}

// Window returns the phase's window; ok is false when no event named or
// was tagged with the phase.
func (p *PhaseWindow) Window() (lo, hi float64, ok bool) {
	w := p.spans
	if (!w.set || w.hi <= w.lo) && p.tagged.set {
		w.grow(p.tagged.lo, p.tagged.hi)
	}
	return w.lo, w.hi, w.set
}
