//go:build !go1.23

package sim

// The process hand-off (coro.go) needs package iter, new in Go 1.23. This
// undefined name makes an older toolchain fail with an error that says so.
var _ = sim_needs_go1_23
