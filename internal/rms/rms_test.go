package rms

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func TestPaperCostModelShape(t *testing.T) {
	cm := PaperCostModel(30e-3, 25e-3, 1.25e9, 20)
	// Expansion pays spawn per created process; shrink does not spawn.
	expand := cm(40, 80, 0)
	shrink := cm(80, 40, 0)
	if expand <= shrink {
		t.Fatalf("expand cost %g should exceed shrink cost %g", expand, shrink)
	}
	// More nodes move data faster.
	small := cm(20, 40, 1<<30)
	big := cm(140, 160, 1<<30)
	if big >= small {
		t.Fatalf("transfer at 8 nodes (%g) should beat 2 nodes (%g)", big, small)
	}
}

func TestValidateJobReturnsTypedError(t *testing.T) {
	cases := []struct {
		job  Job
		want string
	}{
		{Job{ID: 1, Work: -5, Procs: 2}, "Work"},
		{Job{ID: 2, Work: math.NaN(), Procs: 2}, "Work"},
		{Job{ID: 3, Work: 10, Arrival: -1, Procs: 2}, "Arrival"},
		{Job{ID: 4, Work: 10, Procs: 0}, "Procs"},
		{Job{ID: 5, Work: 10, Procs: 11}, "cores"},
		{Job{ID: 6, Work: 10, Procs: 4, MaxProcs: 2, Malleable: true}, "MaxProcs"},
		{Job{ID: 7, Work: 10, Procs: 2, DataBytes: -1}, "DataBytes"},
	}
	for _, c := range cases {
		err := ValidateJob(c.job, 10)
		var ije *InvalidJobError
		if !errors.As(err, &ije) {
			t.Fatalf("ValidateJob(%+v) = %v, want *InvalidJobError", c.job, err)
		}
		if ije.Job.ID != c.job.ID || !strings.Contains(ije.Reason, c.want) {
			t.Fatalf("ValidateJob(%+v): reason %q does not mention %q", c.job, ije.Reason, c.want)
		}
	}
	// A rigid job's MaxProcs below Procs is a default, not an error.
	if err := ValidateJob(Job{ID: 8, Work: 10, Procs: 4, MaxProcs: 2}, 10); err != nil {
		t.Fatalf("rigid MaxProcs default rejected: %v", err)
	}
}

func TestPaperCostModelRejectsBadParams(t *testing.T) {
	for _, c := range []struct {
		bandwidth    float64
		coresPerNode int
	}{
		{0, 20}, {-1, 20}, {math.NaN(), 20}, {math.Inf(1), 20}, {1e9, 0}, {1e9, -3},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("PaperCostModel(bw=%v, cores=%d) accepted", c.bandwidth, c.coresPerNode)
				}
			}()
			PaperCostModel(30e-3, 25e-3, c.bandwidth, c.coresPerNode)
		}()
	}
}
