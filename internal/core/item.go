// Package core implements the paper's contribution: manual in-memory data
// redistribution for MPI malleability, combining the process-management
// methods of stage 2 (Baseline, Merge) with the stage-3 communication
// methods (point-to-point per Algorithm 1, collectives per Algorithm 2) and
// the computation/communication overlap strategies of §3.2 (synchronous,
// non-blocking with Testall, auxiliary threads).
package core

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/partition"
)

// Item is one distributed data object registered for redistribution. Each
// rank holds a contiguous block of a global element space; redistribution
// moves blocks between the source and target block distributions.
//
// Implementations decide how element ranges translate to wire bytes (dense
// vs sparse) and whether real bytes are carried (correctness runs) or only
// sizes (emulation runs).
type Item interface {
	// Name identifies the item; unique within a Store.
	Name() string
	// Elements is the global element count the item distributes.
	Elements() int64
	// Constant reports whether the item is read-only during execution.
	// Only constant items may be redistributed asynchronously (§3.2);
	// variable items require the sources to halt first.
	Constant() bool
	// WireBytes is the number of bytes element range [lo, hi) occupies on
	// the wire.
	WireBytes(lo, hi int64) int64
	// Extract returns the payload for element range [lo, hi), which must be
	// inside the rank's current block.
	Extract(lo, hi int64) mpi.Payload
	// Prepare allocates local storage for the new block [lo, hi) ("create
	// internal structures" in Algorithm 1).
	Prepare(lo, hi int64)
	// Install stores a received range [lo, hi) into the prepared block.
	Install(lo, hi int64, p mpi.Payload)
}

// distFor is the block distribution of an item's element space over parts.
func distFor(it Item, parts int) partition.BlockDist {
	return partition.NewBlockDist(it.Elements(), parts)
}

// DenseItem is a block-distributed dense array with a fixed element size.
// With Data == nil it is virtual: only sizes travel, which is how
// emulation-scale runs avoid materializing gigabytes.
type DenseItem struct {
	name     string
	n        int64
	elemSize int64
	constant bool
	virtual  bool

	lo, hi int64
	data   []byte
}

// NewDenseVirtual creates a dense item carrying only sizes.
func NewDenseVirtual(name string, n, elemSize int64, constant bool) *DenseItem {
	if n < 0 || elemSize <= 0 {
		panic(fmt.Sprintf("core: invalid dense item %q: n=%d elemSize=%d", name, n, elemSize))
	}
	return &DenseItem{name: name, n: n, elemSize: elemSize, constant: constant, virtual: true}
}

// NewDenseBytes creates a dense item whose rank-local block [lo, hi) holds
// real bytes (len(block) == (hi-lo)*elemSize).
func NewDenseBytes(name string, n, elemSize int64, constant bool, lo, hi int64, block []byte) *DenseItem {
	if int64(len(block)) != (hi-lo)*elemSize {
		panic(fmt.Sprintf("core: item %q block has %d bytes, want %d", name, len(block), (hi-lo)*elemSize))
	}
	return &DenseItem{
		name: name, n: n, elemSize: elemSize, constant: constant,
		lo: lo, hi: hi, data: block,
	}
}

// NewDenseFloat64 creates a real dense item over float64 elements from the
// rank's local block.
func NewDenseFloat64(name string, n int64, constant bool, lo int64, local []float64) *DenseItem {
	pl := mpi.Float64s(local)
	return NewDenseBytes(name, n, 8, constant, lo, lo+int64(len(local)), pl.Data)
}

// Name implements Item.
func (d *DenseItem) Name() string { return d.name }

// Elements implements Item.
func (d *DenseItem) Elements() int64 { return d.n }

// Constant implements Item.
func (d *DenseItem) Constant() bool { return d.constant }

// WireBytes implements Item.
func (d *DenseItem) WireBytes(lo, hi int64) int64 { return (hi - lo) * d.elemSize }

// Block returns the local block range.
func (d *DenseItem) Block() (lo, hi int64) { return d.lo, d.hi }

// SetBlock declares the rank-local block of a virtual item (no storage).
func (d *DenseItem) SetBlock(lo, hi int64) {
	if !d.virtual {
		panic(fmt.Sprintf("core: SetBlock on materialized item %q", d.name))
	}
	d.lo, d.hi = lo, hi
}

// Data returns the local block's bytes (nil for virtual items).
func (d *DenseItem) Data() []byte { return d.data }

// Float64s decodes the local block of a real 8-byte item.
func (d *DenseItem) Float64s() []float64 {
	return mpi.Payload{Size: int64(len(d.data)), Data: d.data}.AsFloat64s()
}

// Extract implements Item.
func (d *DenseItem) Extract(lo, hi int64) mpi.Payload {
	if lo < d.lo || hi > d.hi || lo > hi {
		panic(fmt.Sprintf("core: extract [%d,%d) outside block [%d,%d) of %q", lo, hi, d.lo, d.hi, d.name))
	}
	if d.virtual {
		return mpi.Virtual(d.WireBytes(lo, hi))
	}
	off := (lo - d.lo) * d.elemSize
	return mpi.Bytes(d.data[off : off+(hi-lo)*d.elemSize])
}

// Prepare implements Item.
func (d *DenseItem) Prepare(lo, hi int64) {
	if d.virtual {
		d.lo, d.hi = lo, hi
		return
	}
	fresh := make([]byte, (hi-lo)*d.elemSize)
	// Preserve any overlap with the old block (a rank that is both source
	// and target keeps its local share without self-messaging).
	oLo, oHi := maxI64(lo, d.lo), minI64(hi, d.hi)
	if oLo < oHi && d.data != nil {
		copy(fresh[(oLo-lo)*d.elemSize:], d.data[(oLo-d.lo)*d.elemSize:(oHi-d.lo)*d.elemSize])
	}
	d.lo, d.hi, d.data = lo, hi, fresh
}

// Install implements Item.
func (d *DenseItem) Install(lo, hi int64, p mpi.Payload) {
	if lo < d.lo || hi > d.hi {
		panic(fmt.Sprintf("core: install [%d,%d) outside block [%d,%d) of %q", lo, hi, d.lo, d.hi, d.name))
	}
	if want := d.WireBytes(lo, hi); p.Size != want {
		panic(fmt.Sprintf("core: install %d bytes into %q, want %d", p.Size, d.name, want))
	}
	if d.virtual {
		return
	}
	if p.Data == nil {
		if p.Size > 0 {
			// Silent data loss otherwise: a materialized item must receive
			// real bytes.
			panic(fmt.Sprintf("core: virtual payload installed into real item %q", d.name))
		}
		return
	}
	copy(d.data[(lo-d.lo)*d.elemSize:], p.Data)
}

// SparseItem is a row-block distributed sparse matrix described by its
// global row pointer: the wire size of a row range is its non-zero count
// times the entry size (plus a per-row header). Payloads are virtual; the
// real-data CSR path lives with the solver that owns the matrix.
type SparseItem struct {
	name      string
	rowPtr    []int64
	entrySize int64 // bytes per non-zero (value + column index)
	rowHeader int64 // bytes per row (row length header)
	constant  bool
	lo, hi    int64
}

// NewSparseVirtual creates a sparse item from a global row pointer
// (len = rows+1).
func NewSparseVirtual(name string, rowPtr []int64, entrySize, rowHeader int64, constant bool) *SparseItem {
	if len(rowPtr) == 0 || entrySize <= 0 || rowHeader < 0 {
		panic(fmt.Sprintf("core: invalid sparse item %q", name))
	}
	return &SparseItem{
		name: name, rowPtr: rowPtr, entrySize: entrySize,
		rowHeader: rowHeader, constant: constant,
	}
}

// Name implements Item.
func (s *SparseItem) Name() string { return s.name }

// Elements implements Item (rows).
func (s *SparseItem) Elements() int64 { return int64(len(s.rowPtr) - 1) }

// Constant implements Item.
func (s *SparseItem) Constant() bool { return s.constant }

// Nnz returns the non-zero count of row range [lo, hi).
func (s *SparseItem) Nnz(lo, hi int64) int64 { return s.rowPtr[hi] - s.rowPtr[lo] }

// WireBytes implements Item.
func (s *SparseItem) WireBytes(lo, hi int64) int64 {
	return s.Nnz(lo, hi)*s.entrySize + (hi-lo)*s.rowHeader
}

// Extract implements Item.
func (s *SparseItem) Extract(lo, hi int64) mpi.Payload {
	if lo < s.lo || hi > s.hi {
		panic(fmt.Sprintf("core: extract rows [%d,%d) outside block [%d,%d) of %q", lo, hi, s.lo, s.hi, s.name))
	}
	return mpi.Virtual(s.WireBytes(lo, hi))
}

// Prepare implements Item.
func (s *SparseItem) Prepare(lo, hi int64) { s.lo, s.hi = lo, hi }

// Install implements Item.
func (s *SparseItem) Install(lo, hi int64, p mpi.Payload) {
	if want := s.WireBytes(lo, hi); p.Size != want {
		panic(fmt.Sprintf("core: install %d bytes into %q, want %d", p.Size, s.name, want))
	}
}

// SetBlock declares the rank-local row block.
func (s *SparseItem) SetBlock(lo, hi int64) { s.lo, s.hi = lo, hi }

// Store is a rank's registry of distributed data items, in registration
// order.
type Store struct {
	items []Item
}

// NewStore returns an empty registry.
func NewStore() *Store { return &Store{} }

// find returns the registration index of the item named name, or -1. A
// store holds a handful of items, so a scan beats a name index.
func (st *Store) find(name string) int {
	for i, it := range st.items {
		if it.Name() == name {
			return i
		}
	}
	return -1
}

// Register adds an item. Names must be unique.
func (st *Store) Register(it Item) {
	if st.find(it.Name()) >= 0 {
		panic(fmt.Sprintf("core: duplicate item %q", it.Name()))
	}
	st.items = append(st.items, it)
}

// IndexOf returns the registration index of it. The lookup finds the item
// by name and then verifies identity, so a foreign item that merely shares
// a name with a registered one is reported as absent rather than aliased
// to it.
func (st *Store) IndexOf(it Item) (int, bool) {
	i := st.find(it.Name())
	if i < 0 || st.items[i] != it {
		return 0, false
	}
	return i, true
}

// Item returns the registered item by name, or nil.
func (st *Store) Item(name string) Item {
	if i := st.find(name); i >= 0 {
		return st.items[i]
	}
	return nil
}

// Items returns all items in registration order.
func (st *Store) Items() []Item { return st.items }

// ConstantItems returns the constant items in registration order.
func (st *Store) ConstantItems() []Item { return st.filter(true) }

// VariableItems returns the variable items in registration order.
func (st *Store) VariableItems() []Item { return st.filter(false) }

func (st *Store) filter(constant bool) []Item {
	var out []Item
	for _, it := range st.items {
		if it.Constant() == constant {
			out = append(out, it)
		}
	}
	return out
}

// sendChunksFor returns the chunks source rank s sends for item it when
// redistributing from ns to nt parts, in ascending target order.
//
// The enumeration is the sparse interval-overlap walk: O(own peers) per
// call, never the O(NS+NT) global plan the memoized planFor of earlier
// revisions handed out. At 10k–100k ranks the global plan is itself the
// scaling hazard — every rank filtering a shared million-chunk slice is an
// O((NS+NT)²) aggregate scan per pass.
func sendChunksFor(it Item, ns, nt, s int) []partition.Chunk {
	return partition.SendOverlaps(distFor(it, ns), distFor(it, nt), s)
}

// recvChunksFor returns the chunks target rank t receives for item it, in
// ascending source order. See sendChunksFor.
func recvChunksFor(it Item, ns, nt, t int) []partition.Chunk {
	return partition.RecvOverlaps(distFor(it, ns), distFor(it, nt), t)
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
