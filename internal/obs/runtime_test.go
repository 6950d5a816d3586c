package obs

import (
	"runtime"
	"testing"
)

// TestRuntimeSampleGCTime: the collector's CPU time is positive once a
// collection has run and never decreases across a forced one, and the
// sample reports the memory in goroutine stacks.
func TestRuntimeSampleGCTime(t *testing.T) {
	runtime.GC()
	before := SampleRuntime()
	garbage := make([][]byte, 0, 1024)
	for i := 0; i < cap(garbage); i++ {
		garbage = append(garbage, make([]byte, 1<<10))
	}
	garbage = nil
	runtime.GC()
	after := SampleRuntime()
	if before.GCCPUSeconds <= 0 {
		t.Errorf("GC CPU time %g s after a collection, want > 0", before.GCCPUSeconds)
	}
	if after.GCCPUSeconds < before.GCCPUSeconds {
		t.Errorf("GC CPU time fell from %g s to %g s across a collection", before.GCCPUSeconds, after.GCCPUSeconds)
	}
	if after.GCAssistCPUSeconds < before.GCAssistCPUSeconds || after.GCAssistCPUSeconds > after.GCCPUSeconds {
		t.Errorf("GC assist time went from %g s to %g s (GC total %g s)",
			before.GCAssistCPUSeconds, after.GCAssistCPUSeconds, after.GCCPUSeconds)
	}
	if after.GCCycles <= before.GCCycles {
		t.Errorf("GC cycles %d -> %d across a forced collection", before.GCCycles, after.GCCycles)
	}
	if after.StackBytes == 0 {
		t.Error("no memory in goroutine stacks")
	}
}
