package trace

import "testing"

// TestPhaseWindowTiers checks both tiers of the streamed window: the
// phase's spans alone when they give a window with hi > lo, the spans
// widened by the traffic tagged with the phase when they are instants,
// and no window when nothing names the phase.
func TestPhaseWindowTiers(t *testing.T) {
	span := func(start, end float64) Event {
		return Event{Kind: EvPhase, Start: start, End: end, Op: PhaseRedistVar, Phase: PhaseRedistVar}
	}
	tagged := func(start, end float64) Event {
		return Event{Kind: EvSend, Start: start, End: end, Op: "Isend", Phase: PhaseRedistVar}
	}
	other := Event{Kind: EvPhase, Start: 0, End: 100, Op: PhaseHalt, Phase: PhaseHalt}
	for _, tc := range []struct {
		name   string
		events []Event
		lo, hi float64
		ok     bool
	}{
		{"spans", []Event{tagged(0, 9), span(2, 3), other, span(1, 2)}, 1, 3, true},
		{"instants widen", []Event{span(4, 4), tagged(5, 6), other, tagged(3, 3)}, 3, 6, true},
		{"tagged only", []Event{tagged(5, 6), tagged(2, 2)}, 2, 6, true},
		{"one instant", []Event{span(4, 4)}, 4, 4, true},
		{"none", []Event{other}, 0, 0, false},
	} {
		w := &PhaseWindow{Phase: PhaseRedistVar}
		for _, ev := range tc.events {
			w.Record(ev)
		}
		lo, hi, ok := w.Window()
		if lo != tc.lo || hi != tc.hi || ok != tc.ok {
			t.Errorf("%s: window [%v, %v] ok=%v, want [%v, %v] ok=%v", tc.name, lo, hi, ok, tc.lo, tc.hi, tc.ok)
		}
	}
}
