//go:build go1.23

package sim

import "iter"

// start creates p's coroutine. iter.Pull runs the body on a goroutine of
// its own, but next and yield switch between that goroutine and the
// caller directly, with no trip through the Go scheduler's run queue. The
// module's go line stays at 1.22 (perfbench/go.mod pins it), so this file
// carries the go1.23 tag that lets it use package iter.
func (p *Proc) start() {
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		p.run()
	})
}
