package mpi

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
)

// neverCond is a wait condition that never holds and names itself in
// deadlock reports.
type neverCond string

func (neverCond) Done() bool       { return false }
func (n neverCond) String() string { return string(n) }

// deadlockCases are small worlds that each deadlock inside one blocking
// primitive. Every rank runs on its own node, so transfers cross the
// fabric.
var deadlockCases = []struct {
	name  string
	ranks int
	main  func(c *Ctx, comm *Comm)
}{
	{"wait-isend-user-tag", 2, func(c *Ctx, comm *Comm) {
		if comm.Rank(c) == 0 {
			// Above the eager threshold: the rendezvous never matches.
			c.Send(comm, 1, 7, Virtual(1<<20))
		}
	}},
	{"wait-isend-coll-tag", 2, func(c *Ctx, comm *Comm) {
		if comm.Rank(c) == 0 {
			c.Wait(c.Isend(comm, 1, c.collTag(comm), Virtual(1<<20)))
		}
	}},
	{"wait-irecv-wildcard", 2, func(c *Ctx, comm *Comm) {
		if comm.Rank(c) == 0 {
			c.Wait(c.Irecv(comm, AnySource, AnyTag))
		}
	}},
	{"waitall", 2, func(c *Ctx, comm *Comm) {
		switch comm.Rank(c) {
		case 0:
			c.Waitall([]Request{
				c.Isend(comm, 1, 5, Virtual(8)),
				c.Irecv(comm, 1, 6),
				c.Irecv(comm, AnySource, 7),
			})
		case 1:
			c.Recv(comm, 0, 5)
		}
	}},
	{"waitany", 2, func(c *Ctx, comm *Comm) {
		switch comm.Rank(c) {
		case 0:
			rs := []Request{c.Irecv(comm, 1, 1), c.Irecv(comm, 1, 2)}
			c.Waitany(rs) // the tag-1 message
			c.Waitany(rs)
		case 1:
			c.Send(comm, 0, 1, Virtual(8))
		}
	}},
	{"wait-until", 2, func(c *Ctx, comm *Comm) {
		if comm.Rank(c) == 1 {
			c.WaitUntil(neverCond("test: condition that never holds"))
		}
	}},
	{"ialltoallv", 3, func(c *Ctx, comm *Comm) {
		if comm.Rank(c) == 2 {
			return // never joins the exchange
		}
		send := []Payload{Virtual(1 << 20), Virtual(1 << 20), Virtual(1 << 20)}
		c.Wait(c.Ialltoallv(comm, send))
	}},
	{"fence-straggler", 4, func(c *Ctx, comm *Comm) {
		win := c.WinCreate(comm, Payload{})
		switch comm.Rank(c) {
		case 1:
			c.Sleep(1)
		case 3:
			return // never fences
		}
		c.Fence(win)
	}},
}

// TestDeadlockReportGolden pins the text of DeadlockError.Error() for a
// deadlock inside each blocking primitive: the operation descriptions, the
// collective-tag marker, pending counts and the window-epoch straggler.
// When a report is meant to change, replace the golden with the "got"
// text the failure prints.
func TestDeadlockReportGolden(t *testing.T) {
	var got strings.Builder
	for _, tc := range deadlockCases {
		w := testWorld(t, tc.ranks, 4, defaultTestOptions())
		w.Launch(tc.ranks, func(r int) int { return r }, tc.main)
		err := w.Kernel().Run()
		var de *sim.DeadlockError
		if !errors.As(err, &de) {
			t.Fatalf("%s: run = %v, want *sim.DeadlockError", tc.name, err)
		}
		got.WriteString(tc.name + ": " + de.Error() + "\n")
	}
	path := filepath.Join("testdata", "deadlock_reports.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("deadlock reports differ from %s:\ngot:\n%s\nwant:\n%s", path, got.String(), want)
	}
}
