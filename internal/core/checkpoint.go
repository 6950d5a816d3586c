package core

import (
	"fmt"

	"repro/internal/mpi"
)

// crTransfer implements the on-disk reconfiguration baseline of §2:
// traditional checkpoint/restart. Sources serialize every item to the
// shared parallel filesystem, a barrier separates the epoch, and targets
// read back exactly their new blocks. The paper's premise — that in-memory
// redistribution exists because "traditional C/R solutions show a low
// performance because of the costly disk access" — becomes measurable by
// selecting Comm = CR (synchronous only: C/R halts execution by design).
//
// Data round-trips through a simulated file table, so correctness runs
// verify real bytes through the disk path exactly as through the network
// paths.
type crTransfer struct {
	v     *view
	items []Item
	files *crFiles
}

// crFiles is the per-reconfiguration "filesystem namespace": one byte
// region per (item, source rank). Single-threaded under the kernel.
// complete marks sources that finished writing every block; readers must
// check it so a crash mid-write can never expose a partial checkpoint.
type crFiles struct {
	blocks   map[crKey]mpi.Payload
	complete map[int]bool
}

type crKey struct {
	item int
	src  int
}

// crStoreFor returns the shared file namespace for this transfer's matching
// context (both sides of a Baseline intercomm see the same one).
func crStoreFor(c *mpi.Ctx, v *view) *crFiles {
	reg := registryOf(c.World())
	id := v.comm.CtxID()
	f := reg.files[id]
	if f == nil {
		f = &crFiles{blocks: map[crKey]mpi.Payload{}, complete: map[int]bool{}}
		reg.files[id] = f
	}
	return f
}

func newCRTransfer(v *view, items []Item) *crTransfer {
	requireItems(items, "checkpoint-restart")
	return &crTransfer{v: v, items: items}
}

// runBlockingAll writes the checkpoint, synchronizes, and restores.
func (t *crTransfer) runBlockingAll(c *mpi.Ctx) {
	machine := c.World().Machine()
	fs := machine.FS()
	if fs == nil {
		panic("core: checkpoint/restart needs a filesystem (cluster.Config.FSBandwidth)")
	}
	t.files = crStoreFor(c, t.v)

	// Checkpoint phase: every source streams its blocks to disk.
	if t.v.isSource() {
		for i, it := range t.items {
			pl := t.v.sourceBlock(it)
			t.files.blocks[crKey{item: i, src: t.v.srcRank}] = mpi.Payload{
				Size: pl.Size, Data: append([]byte(nil), pl.Data...),
			}
			c.Sleep(machine.FSLatency())
			if pl.Size > 0 {
				c.Use(fs, float64(pl.Size))
			}
		}
		t.files.complete[t.v.srcRank] = true
	}

	// Epoch boundary: restart only reads complete checkpoints.
	t.v.comm.FastBarrier(c)

	// Restart phase: every target reads its new blocks, chunk by chunk.
	if t.v.isTarget() {
		for i, it := range t.items {
			lo, hi := targetRange(it, t.v.nt, t.v.tgtRank)
			it.Prepare(lo, hi)
			for _, ch := range recvChunksFor(it, t.v.ns, t.v.nt, t.v.tgtRank) {
				if !t.files.complete[ch.Src] {
					panic(&UnrecoverableError{Reason: fmt.Sprintf(
						"item %q: source %d never completed its checkpoint", it.Name(), ch.Src)})
				}
				src, ok := t.files.blocks[crKey{item: i, src: ch.Src}]
				if !ok {
					panic(fmt.Sprintf("core: checkpoint of item %d from source %d missing", i, ch.Src))
				}
				srcDist := distFor(it, t.v.ns)
				off := it.WireBytes(srcDist.Lo(ch.Src), ch.Lo)
				n := it.WireBytes(ch.Lo, ch.Hi)
				c.Sleep(machine.FSLatency())
				if n > 0 {
					c.Use(fs, float64(n))
				}
				if src.Data == nil {
					it.Install(ch.Lo, ch.Hi, mpi.Virtual(n))
				} else {
					it.Install(ch.Lo, ch.Hi, mpi.Payload{Size: n, Data: src.Data[off : off+n]})
				}
			}
		}
	}
}

// progress and drain exist to satisfy the xfer interface; C/R is
// synchronous by nature (§2: on-disk reconfiguration halts executions).
func (t *crTransfer) progress(c *mpi.Ctx) bool {
	panic("core: checkpoint/restart cannot overlap execution; use Overlap = Sync")
}

// ready holds, so a drive resumes into progress's panic.
func (t *crTransfer) ready() bool { return true }

func (t *crTransfer) drain(c *mpi.Ctx) {
	panic("core: checkpoint/restart cannot overlap execution; use Overlap = Sync")
}
