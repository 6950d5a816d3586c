package partition_test

import (
	"fmt"

	"repro/internal/partition"
)

// A redistribution plan is the pairwise intersection of the source and
// target block distributions: who sends which element range to whom.
func ExampleNewPlan() {
	plan := partition.NewPlan(10, 2, 5)
	for _, ch := range plan.Chunks {
		fmt.Printf("source %d -> target %d: [%d, %d)\n", ch.Src, ch.Dst, ch.Lo, ch.Hi)
	}
	// Output:
	// source 0 -> target 0: [0, 2)
	// source 0 -> target 1: [2, 4)
	// source 0 -> target 2: [4, 5)
	// source 1 -> target 2: [5, 6)
	// source 1 -> target 3: [6, 8)
	// source 1 -> target 4: [8, 10)
}
