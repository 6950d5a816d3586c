package core

import (
	"math"
	"testing"
)

func TestRTTEstimatorFirstSample(t *testing.T) {
	var e RTTEstimator
	if e.Samples() != 0 || e.RTO() != 0 {
		t.Fatalf("zero estimator: Samples=%d RTO=%g, want 0/0", e.Samples(), e.RTO())
	}
	e.Observe(0.4)
	if e.Samples() != 1 {
		t.Fatalf("Samples = %d, want 1", e.Samples())
	}
	if e.srtt != 0.4 || e.rttvar != 0.2 {
		t.Errorf("first sample: srtt=%g rttvar=%g, want 0.4/0.2", e.srtt, e.rttvar)
	}
	if got, want := e.RTO(), 0.4+4*0.2; math.Abs(got-want) > 1e-12 {
		t.Errorf("RTO = %g, want %g", got, want)
	}
}

// TestRTTEstimatorRecurrences pins the Jacobson/Karels EWMA updates
// (alpha = 1/8, beta = 1/4) against an independent evaluation.
func TestRTTEstimatorRecurrences(t *testing.T) {
	var e RTTEstimator
	samples := []float64{0.4, 0.2, 0.8, 0.1, 0.1}
	var srtt, rttvar float64
	for i, s := range samples {
		if i == 0 {
			srtt, rttvar = s, s/2
		} else {
			err := s - srtt
			rttvar = 0.75*rttvar + 0.25*math.Abs(err)
			srtt += err / 8
		}
		e.Observe(s)
		if math.Abs(e.srtt-srtt) > 1e-12 || math.Abs(e.rttvar-rttvar) > 1e-12 {
			t.Fatalf("after sample %d (%g): srtt=%g rttvar=%g, want %g/%g",
				i, s, e.srtt, e.rttvar, srtt, rttvar)
		}
		if want := srtt + 4*rttvar; math.Abs(e.RTO()-want) > 1e-12 {
			t.Fatalf("after sample %d: RTO=%g, want %g", i, e.RTO(), want)
		}
	}
	if e.Samples() != len(samples) {
		t.Errorf("Samples = %d, want %d", e.Samples(), len(samples))
	}
}

func TestRTTEstimatorIgnoresNegative(t *testing.T) {
	var e RTTEstimator
	e.Observe(-1)
	if e.Samples() != 0 {
		t.Fatalf("negative sample counted: Samples = %d", e.Samples())
	}
	e.Observe(0.3)
	e.Observe(-5)
	if e.Samples() != 1 || e.srtt != 0.3 {
		t.Errorf("after 0.3 and a negative: Samples=%d srtt=%g, want 1/0.3", e.Samples(), e.srtt)
	}
}
