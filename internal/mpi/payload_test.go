package mpi

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestVirtualPayload(t *testing.T) {
	p := Virtual(1024)
	if !p.IsVirtual() || p.Size != 1024 || p.Data != nil {
		t.Fatalf("Virtual(1024) = %+v", p)
	}
}

func TestVirtualNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Virtual(-1) did not panic")
		}
	}()
	Virtual(-1)
}

func TestBytesPayload(t *testing.T) {
	data := []byte{1, 2, 3}
	p := Bytes(data)
	if p.IsVirtual() || p.Size != 3 {
		t.Fatalf("Bytes = %+v", p)
	}
}

func TestFloat64sRoundTrip(t *testing.T) {
	want := []float64{0, -1.5, math.Pi, math.Inf(1), math.SmallestNonzeroFloat64}
	got := Float64s(want).AsFloat64s()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip = %v, want %v", got, want)
	}
}

func TestInt64sRoundTrip(t *testing.T) {
	want := []int64{0, -1, math.MaxInt64, math.MinInt64, 42}
	pl := Int64s(want)
	got := make([]int64, pl.Size/8)
	for i := range got {
		got[i] = pl.Int64At(i)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip = %v, want %v", got, want)
	}
}

// TestScratchInt64RoundTripAllocatesNothing pins the size-message codec
// the transfers' hot loops use: encoding into a caller's scratch buffer
// and decoding one element back allocates nothing, where the Int64s
// slice path allocates once per message.
func TestScratchInt64RoundTripAllocatesNothing(t *testing.T) {
	var scratch [8]byte
	var got int64
	allocs := testing.AllocsPerRun(200, func() {
		got = Bytes(AppendInt64s(scratch[:0], 4096)).Int64At(0)
	})
	if got != 4096 {
		t.Fatalf("round trip = %d, want 4096", got)
	}
	if allocs != 0 {
		t.Fatalf("scratch round trip allocates %v per run, want 0", allocs)
	}
}

func TestAsFloat64sOnVirtualPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AsFloat64s on virtual payload did not panic")
		}
	}()
	Virtual(8).AsFloat64s()
}

func TestPayloadSlice(t *testing.T) {
	p := Float64s([]float64{1, 2, 3, 4})
	s := p.Slice(8, 24)
	if got := s.AsFloat64s(); !reflect.DeepEqual(got, []float64{2, 3}) {
		t.Fatalf("Slice = %v", got)
	}
	v := Virtual(100).Slice(10, 60)
	if !v.IsVirtual() || v.Size != 50 {
		t.Fatalf("virtual slice = %+v", v)
	}
}

func TestPayloadSliceBoundsPanics(t *testing.T) {
	p := Virtual(10)
	for _, r := range [][2]int64{{-1, 5}, {5, 3}, {0, 11}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Slice(%d,%d) did not panic", r[0], r[1])
				}
			}()
			p.Slice(r[0], r[1])
		}()
	}
}

func TestOpSumFloat64(t *testing.T) {
	a := Float64s([]float64{1, 5})
	b := Float64s([]float64{3, 2})
	OpSumFloat64(a.Data, b.Data)
	if got := a.AsFloat64s(); got[0] != 4 || got[1] != 7 {
		t.Fatalf("sum = %v", got)
	}
}

func TestOpsMismatchedBuffersPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched OpSumFloat64 did not panic")
		}
	}()
	OpSumFloat64(make([]byte, 8), make([]byte, 16))
}

func TestClonePayloadIndependence(t *testing.T) {
	orig := Float64s([]float64{1, 2})
	c := clonePayload(orig)
	c.Data[0] = 99
	if orig.Data[0] == 99 {
		t.Fatal("clone aliases original")
	}
	v := clonePayload(Virtual(5))
	if !v.IsVirtual() || v.Size != 5 {
		t.Fatalf("virtual clone = %+v", v)
	}
}

func TestPropertyFloat64sRoundTrip(t *testing.T) {
	f := func(xs []float64) bool {
		got := Float64s(xs).AsFloat64s()
		if len(got) != len(xs) {
			return false
		}
		for i := range xs {
			// NaN != NaN: compare bit patterns.
			if math.Float64bits(got[i]) != math.Float64bits(xs[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxInFlightPipelinesSends(t *testing.T) {
	// With MaxInFlight=1, ten same-size rendezvous messages from one
	// sender serialize: total time ≈ 10 transfers; with a large cap they
	// share the NIC and total time is the same (work conserving) but the
	// FIRST delivery arrives much earlier under the pipeline.
	run := func(maxInFlight int) (first, last float64) {
		opts := defaultTestOptions()
		opts.MaxInFlight = maxInFlight
		w := testWorld(t, 2, 4, opts)
		nodeOf := func(r int) int { return r }
		w.Launch(2, nodeOf, func(c *Ctx, comm *Comm) {
			const n = 10
			switch comm.Rank(c) {
			case 0:
				var reqs []Request
				for i := 0; i < n; i++ {
					reqs = append(reqs, c.Isend(comm, 1, 1, Virtual(1<<20)))
				}
				c.Waitall(reqs)
			case 1:
				// Pre-post every receive so the sender's pipeline (not the
				// receive posts) governs when flows start.
				reqs := make([]Request, n)
				for i := 0; i < n; i++ {
					reqs[i] = c.Irecv(comm, 0, 1)
				}
				c.Waitany(reqs)
				first = c.Now()
				c.Waitall(reqs)
				last = c.Now()
			}
		})
		if err := w.Kernel().Run(); err != nil {
			t.Fatal(err)
		}
		return first, last
	}
	firstSerial, lastSerial := run(1)
	firstShared, lastShared := run(100)
	// Work conserving up to the per-message latencies, which serialize
	// under the depth-1 pipeline (10 x 1 µs here) and overlap otherwise.
	if math.Abs(lastSerial-lastShared) > 2e-5 {
		t.Fatalf("total drain differs: %g vs %g (fluid model is work conserving)", lastSerial, lastShared)
	}
	if firstSerial >= firstShared {
		t.Fatalf("pipelined first delivery %g should beat shared %g", firstSerial, firstShared)
	}
}
