package mpi

import "sort"

// Split partitions the communicator by color, ordering ranks within each
// new group by (key, old rank), as MPI_Comm_split. Every member must call
// it; members passing the same color receive the same new communicator.
// A negative color (MPI_UNDEFINED) yields nil.
func (c *Ctx) Split(comm *Comm, color, key int) *Comm {
	if comm.IsInter() {
		panic("mpi: Split on inter-communicator")
	}
	w := comm.w
	st := w.splitFor(comm, c)
	r := comm.Rank(c)
	st.entries = append(st.entries, splitEntry{rank: r, color: color, key: key})
	// Rendezvous: the last arriver builds all result communicators.
	w.barrierFor(comm).arrive(c)
	if st.result == nil {
		st.build(comm)
	}
	w.barrierFor(comm).arrive(c) // results visible to all
	out := st.result[r]
	st.claimed++
	if st.claimed == comm.Size() {
		delete(w.splits, st.key)
	}
	return out
}

type splitEntry struct{ rank, color, key int }

type splitSt struct {
	key     derivedKey
	entries []splitEntry
	result  map[int]*Comm // by old rank
	claimed int
}

func (w *World) splitFor(comm *Comm, c *Ctx) *splitSt {
	if w.splits == nil {
		w.splits = make(map[derivedKey]*splitSt)
	}
	key := derivedKey{ctxID: comm.ctxID, kind: "split", gen: comm.derivedGen(c, "split")}
	st, ok := w.splits[key]
	if !ok {
		st = &splitSt{key: key}
		w.splits[key] = st
	}
	return st
}

func (st *splitSt) build(comm *Comm) {
	st.result = make(map[int]*Comm, len(st.entries))
	byColor := map[int][]splitEntry{}
	for _, e := range st.entries {
		if e.color < 0 {
			st.result[e.rank] = nil
			continue
		}
		byColor[e.color] = append(byColor[e.color], e)
	}
	colors := make([]int, 0, len(byColor))
	for col := range byColor {
		colors = append(colors, col)
	}
	sort.Ints(colors)
	for _, col := range colors {
		group := byColor[col]
		sort.Slice(group, func(i, j int) bool {
			if group[i].key != group[j].key {
				return group[i].key < group[j].key
			}
			return group[i].rank < group[j].rank
		})
		procs := make([]*Process, len(group))
		for i, e := range group {
			procs[i] = comm.localProc(e.rank)
		}
		nc := comm.w.newComm(procs, nil)
		for _, e := range group {
			st.result[e.rank] = nc
		}
	}
}

// Allgatherv variants and the rest of the collective family live in
// coll.go; this file holds the rooted collectives and Split.
