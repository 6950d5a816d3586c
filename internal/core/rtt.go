package core

import "math"

// RTTEstimator is a Jacobson/Karels smoothed round-trip estimator over
// observed per-flow completion times (the interval from posting a chunk
// receive to its delivery). The resilient pass feeds it from the P2P value
// stream and derives the adaptive epoch deadline from RTO(); the COL path
// observes only coarse phase completions and records no samples, so it
// keeps the configured fixed deadline.
//
// The recurrences are the classic TCP ones (all times in simulated
// seconds):
//
//	first sample s:  srtt = s, rttvar = s/2
//	then:            rttvar = (1-beta)*rttvar + beta*|s - srtt|
//	                 srtt   = (1-alpha)*srtt  + alpha*s
//	                 RTO    = srtt + 4*rttvar
//
// with alpha = 1/8 and beta = 1/4.
type RTTEstimator struct {
	srtt   float64
	rttvar float64
	n      int
}

// rttAlpha and rttBeta are the Jacobson/Karels EWMA gains.
const (
	rttAlpha = 1.0 / 8
	rttBeta  = 1.0 / 4
)

// Observe feeds one flow-completion sample in simulated seconds. Negative
// samples (clock misuse) are ignored.
func (e *RTTEstimator) Observe(s float64) {
	if s < 0 {
		return
	}
	if e.n == 0 {
		e.srtt = s
		e.rttvar = s / 2
	} else {
		err := s - e.srtt
		e.rttvar = (1-rttBeta)*e.rttvar + rttBeta*math.Abs(err)
		e.srtt += rttAlpha * err
	}
	e.n++
}

// Samples reports how many observations have been fed.
func (e *RTTEstimator) Samples() int { return e.n }

// RTO returns the retransmission-timeout estimate srtt + 4*rttvar. It is
// meaningless (0) before the first sample; callers must check Samples.
func (e *RTTEstimator) RTO() float64 { return e.srtt + 4*e.rttvar }
