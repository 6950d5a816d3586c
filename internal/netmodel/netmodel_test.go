package netmodel

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

const tol = 1e-9

func near(a, b float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func testParams() Params {
	return Params{
		Name:           "test",
		Latency:        1e-3,
		Bandwidth:      1e6, // 1 MB/s: easy arithmetic
		IntraLatency:   1e-6,
		IntraBandwidth: 1e8,
		IntraPerFlow:   1e7,
	}
}

func TestSingleFlowLatencyPlusBandwidth(t *testing.T) {
	k := sim.NewKernel()
	f := NewFabric(k, testParams(), 4)
	var done float64 = -1
	k.At(0, func() {
		f.Transfer(0, 1, 1e6, func() { done = k.Now() })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// 1 ms latency + 1 MB / 1 MB/s = 1.001 s
	if !near(done, 1.001) {
		t.Fatalf("done at %g, want 1.001", done)
	}
}

func TestZeroByteTransferPaysLatencyOnly(t *testing.T) {
	k := sim.NewKernel()
	f := NewFabric(k, testParams(), 2)
	var done float64 = -1
	k.At(0, func() {
		f.Transfer(0, 1, 0, func() { done = k.Now() })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !near(done, 1e-3) {
		t.Fatalf("done at %g, want 0.001", done)
	}
}

func TestTwoFlowsShareSenderNIC(t *testing.T) {
	// Same source, two destinations: tx NIC splits in half.
	k := sim.NewKernel()
	f := NewFabric(k, testParams(), 4)
	var d1, d2 float64
	k.At(0, func() {
		f.Transfer(0, 1, 1e6, func() { d1 = k.Now() })
		f.Transfer(0, 2, 1e6, func() { d2 = k.Now() })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := 1e-3 + 2.0 // each at 0.5 MB/s
	if !near(d1, want) || !near(d2, want) {
		t.Fatalf("done at %g, %g, want %g", d1, d2, want)
	}
}

func TestTwoFlowsShareReceiverNIC(t *testing.T) {
	k := sim.NewKernel()
	f := NewFabric(k, testParams(), 4)
	var d1, d2 float64
	k.At(0, func() {
		f.Transfer(0, 2, 1e6, func() { d1 = k.Now() })
		f.Transfer(1, 2, 1e6, func() { d2 = k.Now() })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := 1e-3 + 2.0
	if !near(d1, want) || !near(d2, want) {
		t.Fatalf("done at %g, %g, want %g", d1, d2, want)
	}
}

func TestDisjointPairsDoNotContend(t *testing.T) {
	k := sim.NewKernel()
	f := NewFabric(k, testParams(), 4)
	var d1, d2 float64
	k.At(0, func() {
		f.Transfer(0, 1, 1e6, func() { d1 = k.Now() })
		f.Transfer(2, 3, 1e6, func() { d2 = k.Now() })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := 1.001
	if !near(d1, want) || !near(d2, want) {
		t.Fatalf("done at %g, %g, want %g", d1, d2, want)
	}
}

func TestRateIncreasesWhenCompetitorFinishes(t *testing.T) {
	// Flow A: 2 MB, flow B: 1 MB, same tx NIC. Both at 0.5 MB/s until B
	// finishes at lat+2s (1MB at 0.5); then A alone: remaining 1 MB at 1 MB/s
	// → A at lat+3s.
	k := sim.NewKernel()
	f := NewFabric(k, testParams(), 4)
	var da, db float64
	k.At(0, func() {
		f.Transfer(0, 1, 2e6, func() { da = k.Now() })
		f.Transfer(0, 2, 1e6, func() { db = k.Now() })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !near(db, 1e-3+2) {
		t.Fatalf("b done at %g, want %g", db, 1e-3+2)
	}
	if !near(da, 1e-3+3) {
		t.Fatalf("a done at %g, want %g", da, 1e-3+3)
	}
}

func TestIntraNodeUsesMemoryEngine(t *testing.T) {
	k := sim.NewKernel()
	p := testParams()
	f := NewFabric(k, p, 2)
	var done float64
	k.At(0, func() {
		f.Transfer(1, 1, 1e7, func() { done = k.Now() })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// intra latency 1µs + 10 MB at the 10 MB/s per-flow cap = 1 s
	want := 1e-6 + 1.0
	if !near(done, want) {
		t.Fatalf("done at %g, want %g", done, want)
	}
}

func TestIntraNodeFlowsDoNotTouchNIC(t *testing.T) {
	// An intra-node copy on node 0 must not slow a 0→1 network flow.
	k := sim.NewKernel()
	f := NewFabric(k, testParams(), 2)
	var dNet float64
	k.At(0, func() {
		f.Transfer(0, 0, 1e7, nil)
		f.Transfer(0, 1, 1e6, func() { dNet = k.Now() })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !near(dNet, 1.001) {
		t.Fatalf("network flow done at %g, want 1.001 (no NIC contention)", dNet)
	}
}

func TestCancelStopsDelivery(t *testing.T) {
	k := sim.NewKernel()
	f := NewFabric(k, testParams(), 2)
	fired := false
	var fl *Flow
	k.At(0, func() {
		fl = f.Transfer(0, 1, 1e6, func() { fired = true })
	})
	k.At(0.5, func() {
		if !fl.Cancel() {
			t.Error("Cancel returned false for in-flight flow")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("done fired after Cancel")
	}
	// One recompute when the flow starts streaming re-rates its class; the
	// cancel's recompute finds no class left, and no completion follows.
	if st := f.Stats(); st.Recomputes != 2 || st.Rerated != 1 || st.Drained != 1 {
		t.Fatalf("Stats = %+v after cancel, want 2 recomputes re-rating 1 class and 1 flow drained", st)
	}
}

func TestCancelDuringLatencyPhase(t *testing.T) {
	k := sim.NewKernel()
	f := NewFabric(k, testParams(), 2)
	fired := false
	k.At(0, func() {
		fl := f.Transfer(0, 1, 1e6, func() { fired = true })
		if !fl.Cancel() { // still in latency phase
			t.Error("Cancel in latency phase returned false")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("done fired after latency-phase cancel")
	}
}

func TestTransferOutOfRangePanics(t *testing.T) {
	k := sim.NewKernel()
	f := NewFabric(k, testParams(), 2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Transfer did not panic")
		}
	}()
	f.Transfer(0, 5, 10, nil)
}

func TestPresetsSane(t *testing.T) {
	eth := Ethernet10G()
	ib := InfinibandEDR()
	if eth.Bandwidth >= ib.Bandwidth {
		t.Fatal("Ethernet bandwidth should be below Infiniband")
	}
	if eth.Latency <= ib.Latency {
		t.Fatal("Ethernet latency should be above Infiniband")
	}
	if eth.Bandwidth != 1.25e9 {
		t.Fatalf("Ethernet bandwidth = %g, want 1.25e9 (10 Gb/s)", eth.Bandwidth)
	}
	if ib.Bandwidth != 12.5e9 {
		t.Fatalf("Infiniband bandwidth = %g, want 12.5e9 (100 Gb/s)", ib.Bandwidth)
	}
}

// Property: n equal flows from one sender to n distinct receivers all finish
// at latency + n*size/bandwidth (tx NIC is the bottleneck).
func TestPropertyFanOutSharesFairly(t *testing.T) {
	f := func(nRaw uint8, sizeRaw uint16) bool {
		n := int(nRaw%6) + 2
		size := float64(sizeRaw%1000+1) * 1000
		k := sim.NewKernel()
		fab := NewFabric(k, testParams(), n+1)
		finish := make([]float64, 0, n)
		k.At(0, func() {
			for i := 1; i <= n; i++ {
				fab.Transfer(0, i, int64(size), func() {
					finish = append(finish, k.Now())
				})
			}
		})
		if err := k.Run(); err != nil {
			return false
		}
		want := 1e-3 + float64(n)*size/1e6
		for _, d := range finish {
			if !near(d, want) {
				return false
			}
		}
		return len(finish) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Params)
	}{
		{"negative latency", func(p *Params) { p.Latency = -1 }},
		{"NaN latency", func(p *Params) { p.Latency = math.NaN() }},
		{"zero bandwidth", func(p *Params) { p.Bandwidth = 0 }},
		{"negative bandwidth", func(p *Params) { p.Bandwidth = -5 }},
		{"Inf bandwidth", func(p *Params) { p.Bandwidth = math.Inf(1) }},
		{"zero intra bandwidth", func(p *Params) { p.IntraBandwidth = 0 }},
		{"negative intra latency", func(p *Params) { p.IntraLatency = -1e-9 }},
		{"NaN intra per-flow", func(p *Params) { p.IntraPerFlow = math.NaN() }},
	}
	for _, tc := range cases {
		p := testParams()
		tc.mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, p)
		}
	}
	if err := testParams().Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	for _, p := range []Params{Ethernet10G(), InfinibandEDR()} {
		if err := p.Validate(); err != nil {
			t.Errorf("preset %s rejected: %v", p.Name, err)
		}
	}
}

func TestNewFabricPanicsOnInvalidParams(t *testing.T) {
	p := testParams()
	p.Bandwidth = 0
	defer func() {
		if recover() == nil {
			t.Fatal("NewFabric accepted zero bandwidth")
		}
	}()
	NewFabric(sim.NewKernel(), p, 2)
}

func TestNodeDegradationSlowsOnlyThatNode(t *testing.T) {
	k := sim.NewKernel()
	f := NewFabric(k, testParams(), 4)
	f.SetNodeDegradation(1, 0.5)
	var dDeg, dClean float64
	k.At(0, func() {
		f.Transfer(0, 1, 1e6, func() { dDeg = k.Now() })   // into the degraded NIC
		f.Transfer(2, 3, 1e6, func() { dClean = k.Now() }) // untouched pair
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Degraded rx NIC at 0.5 MB/s: 1 MB takes 2 s; the clean pair is unaffected.
	if !near(dDeg, 1e-3+2) {
		t.Fatalf("degraded flow done at %g, want %g", dDeg, 1e-3+2)
	}
	if !near(dClean, 1.001) {
		t.Fatalf("clean flow done at %g, want 1.001", dClean)
	}
}

func TestNodeDegradationMidFlowAndRestore(t *testing.T) {
	// 2 MB at 1 MB/s; halve the NIC at t=1.001 (1 MB in): the second MB runs
	// at 0.5 MB/s -> finishes at 1.001 + 1 + 2.
	k := sim.NewKernel()
	f := NewFabric(k, testParams(), 2)
	var done float64
	k.At(0, func() {
		f.Transfer(0, 1, 2e6, func() { done = k.Now() })
	})
	k.At(1.001, func() { f.SetNodeDegradation(0, 0.5) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !near(done, 1e-3+1+2) {
		t.Fatalf("done at %g, want %g", done, 1e-3+1+2)
	}

	// Factor 1 restores full bandwidth.
	k2 := sim.NewKernel()
	f2 := NewFabric(k2, testParams(), 2)
	f2.SetNodeDegradation(0, 0.25)
	f2.SetNodeDegradation(0, 1)
	var d2 float64
	k2.At(0, func() { f2.Transfer(0, 1, 1e6, func() { d2 = k2.Now() }) })
	if err := k2.Run(); err != nil {
		t.Fatal(err)
	}
	if !near(d2, 1.001) {
		t.Fatalf("restored flow done at %g, want 1.001", d2)
	}
}

func TestSetNodeDegradationValidation(t *testing.T) {
	f := NewFabric(sim.NewKernel(), testParams(), 2)
	for _, factor := range []float64{0, -0.5, 1.5, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("factor %v accepted", factor)
				}
			}()
			f.SetNodeDegradation(0, factor)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("out-of-range node accepted")
			}
		}()
		f.SetNodeDegradation(5, 0.5)
	}()
}

// startJoinBurst starts n inter-node transfers of mixed sizes on an
// 8-node fabric at one instant, so all their latency phases end together;
// done runs as each is delivered.
func startJoinBurst(f *Fabric, n int, done func()) {
	for i := 0; i < n; i++ {
		src := i % 8
		dst := (src + 1 + (i/8)%7) % 8
		f.Transfer(src, dst, int64(4096+(i%64)*512), done)
	}
}

// TestJoinBurstReratesClasses: when 1,000 flows on 8 nodes leave their
// latency phase at one instant, their 1,000 recomputes re-rate at most the
// 56 inter-node classes each (re-rating every flow streaming so far would
// visit 500,500), and no advance drains a flow within the instant.
func TestJoinBurstReratesClasses(t *testing.T) {
	const n, classes = 1000, 8 * 7
	k := sim.NewKernel()
	f := NewFabric(k, Ethernet10G(), 8)
	delivered := 0
	startJoinBurst(f, n, func() { delivered++ })
	k.At(Ethernet10G().Latency, func() { // after every latency phase ends
		st := f.Stats()
		if st.Recomputes != n || st.Rerated > classes*n {
			t.Errorf("at the join instant: %d recomputes re-rated %d classes, want %d re-rating at most %d",
				st.Recomputes, st.Rerated, n, classes*n)
		}
		if st.Advances != 0 || st.Drained != 0 {
			t.Errorf("at the join instant: %d advances drained %d flows, want none", st.Advances, st.Drained)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != n {
		t.Fatalf("delivered %d of %d flows", delivered, n)
	}
}

// BenchmarkJoinBurst: n transfers on an 8-node Ethernet fabric whose
// latency phases end at one instant, as a wave of one-sided Gets does, run
// until all are delivered.
func BenchmarkJoinBurst(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k := sim.NewKernel()
				startJoinBurst(NewFabric(k, Ethernet10G(), 8), n, nil)
				if err := k.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTransfer mirrors perfbench's netmodel.transfer_ns probe: the
// start-to-done time of one 4 KiB transfer on an 8-node Ethernet fabric
// that n long-lived background flows share. Each transfer starts from the
// previous one's done callback; the clock runs from when the background
// flows stream until the last transfer is done.
func BenchmarkTransfer(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			k := sim.NewKernel()
			f := NewFabric(k, Ethernet10G(), 8)
			bg := make([]*Flow, n)
			for i := range bg {
				bg[i] = f.Transfer(i%8, (i+1+i/8)%8, 1<<50, nil)
			}
			left := b.N
			var next func()
			next = func() {
				if left > 0 {
					left--
					f.Transfer(left%8, (left+3)%8, 4096, next)
					return
				}
				b.StopTimer()
				for _, fl := range bg {
					fl.Cancel()
				}
			}
			b.ReportAllocs()
			k.At(1e-3, func() { // after the background flows pass their latency
				b.ResetTimer()
				next()
			})
			if err := k.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
