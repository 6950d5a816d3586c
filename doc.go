// Package repro reproduces "Efficient data redistribution for malleable
// applications" (Martín-Álvarez, Aliaga, Castillo, Iserte; SC-W 2023) as a
// pure-Go system: a deterministic discrete-event MPI runtime standing in
// for MPICH on the paper's 8-node testbed, the twelve malleability
// reconfiguration variants ({Baseline, Merge} x {P2P, COL} x {S, A, T}),
// the synthetic application that emulates a distributed Conjugate
// Gradient, and the statistical pipeline that selects the best method per
// (NS, NT) reconfiguration pair.
//
// See DESIGN.md for the system inventory and per-experiment index,
// EXPERIMENTS.md for paper-versus-measured results, cmd/figures for the
// figures rendered from a recorded sweep, and bench_test.go for the
// ablation benchmarks.
package repro
