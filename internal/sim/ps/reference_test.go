package ps

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"unsafe"

	"repro/internal/sim"
)

// refResource is the map-based processor-sharing algorithm Resource
// replaced: every task, load or finite, is a map entry, and every update
// scans the map. It is the oracle TestResourceMatchesReference checks the
// O(finite tasks) Resource against, bit for bit.
type refResource struct {
	k          *sim.Kernel
	capacity   float64
	perTask    float64
	tasks      map[*refTask]struct{}
	lastUpdate float64
	timer      sim.Timer
	nextSeq    uint64
}

type refTask struct {
	r         *refResource
	seq       uint64
	remaining float64
	infinite  bool
	done      func()
	stopped   bool
}

func newRefResource(k *sim.Kernel, capacity, perTask float64) *refResource {
	return &refResource{k: k, capacity: capacity, perTask: perTask, tasks: make(map[*refTask]struct{})}
}

func (r *refResource) Load() int { return len(r.tasks) }

func (r *refResource) Rate() float64 {
	n := len(r.tasks)
	if n == 0 {
		return 0
	}
	rate := r.capacity / float64(n)
	if r.perTask > 0 && rate > r.perTask {
		rate = r.perTask
	}
	return rate
}

func (r *refResource) advance() {
	now := r.k.Now()
	elapsed := now - r.lastUpdate
	r.lastUpdate = now
	if elapsed <= 0 || len(r.tasks) == 0 {
		return
	}
	served := r.Rate() * elapsed
	for t := range r.tasks {
		if t.infinite {
			continue
		}
		t.remaining -= served
		if t.remaining < 0 {
			t.remaining = 0
		}
	}
}

func (r *refResource) reschedule() {
	r.timer.Cancel()
	r.timer = sim.Timer{}
	rate := r.Rate()
	if rate <= 0 {
		return
	}
	earliest := math.Inf(1)
	any := false
	for t := range r.tasks {
		if t.infinite {
			continue
		}
		any = true
		if dt := t.remaining / rate; dt < earliest {
			earliest = dt
		}
	}
	if !any {
		return
	}
	r.timer = r.k.After(earliest, r.onCompletion)
}

func (r *refResource) onCompletion() {
	r.timer = sim.Timer{}
	r.advance()
	var finished []*refTask
	const eps = 1e-12
	now := r.k.Now()
	rate := r.Rate()
	for t := range r.tasks {
		if t.infinite {
			continue
		}
		if t.remaining <= eps || (rate > 0 && now+t.remaining/rate == now) {
			finished = append(finished, t)
		}
	}
	sort.Slice(finished, func(i, j int) bool { return finished[i].seq < finished[j].seq })
	for _, t := range finished {
		delete(r.tasks, t)
		t.stopped = true
	}
	r.reschedule()
	for _, t := range finished {
		if t.done != nil {
			t.done()
		}
	}
}

func (r *refResource) Start(work float64, done func()) *refTask {
	r.advance()
	t := &refTask{r: r, seq: r.nextSeq, remaining: work, done: done}
	r.nextSeq++
	r.tasks[t] = struct{}{}
	r.reschedule()
	if work == 0 {
		r.k.After(0, func() {
			if !t.stopped {
				delete(r.tasks, t)
				t.stopped = true
				r.advance()
				r.reschedule()
				if t.done != nil {
					t.done()
				}
			}
		})
	}
	return t
}

func (r *refResource) AddLoad() *refTask {
	r.advance()
	t := &refTask{r: r, seq: r.nextSeq, infinite: true}
	r.nextSeq++
	r.tasks[t] = struct{}{}
	r.reschedule()
	return t
}

func (t *refTask) Stop() bool {
	if t.stopped {
		return false
	}
	t.stopped = true
	t.r.advance()
	delete(t.r.tasks, t)
	t.r.reschedule()
	return true
}

// server is what a schedule drives: Resource or refResource.
type server struct {
	start   func(work float64, done func()) (stop func() bool)
	addLoad func() (stop func() bool)
	load    func() int
	rate    func() float64
}

func newServer(k *sim.Kernel, capacity, perTask float64) server {
	r := NewResource(k, "cpu", capacity, perTask)
	return server{
		start:   func(w float64, done func()) func() bool { return r.Start(w, done).Stop },
		addLoad: func() func() bool { return r.AddLoad().Stop },
		load:    r.Load,
		rate:    r.Rate,
	}
}

func newRefServer(k *sim.Kernel, capacity, perTask float64) server {
	r := newRefResource(k, capacity, perTask)
	return server{
		start:   func(w float64, done func()) func() bool { return r.Start(w, done).Stop },
		addLoad: func() func() bool { return r.AddLoad().Stop },
		load:    r.Load,
		rate:    r.Rate,
	}
}

// psOp is one step of a random schedule. Ops sit on a coarse time grid so
// many share an instant, and works are drawn so completions tie.
type psOp struct {
	at       float64
	kind     int     // 0 Start, 1 AddLoad, 2 Stop
	work     float64 // Start: demanded work (0 for an immediate completion)
	followUp float64 // Start: >= 0 starts a task of this work on completion
	pick     float64 // Stop: which live handle, as a fraction
}

func randomSchedule(rng *rand.Rand, n int) []psOp {
	works := []float64{0, 0.5, 1, 1, 2, 3.25}
	ops := make([]psOp, n)
	for i := range ops {
		op := psOp{at: float64(rng.Intn(40)) / 4, kind: rng.Intn(3), followUp: -1, pick: rng.Float64()}
		if rng.Intn(2) == 0 {
			op.work = works[rng.Intn(len(works))]
		} else {
			op.work = rng.ExpFloat64()
		}
		if rng.Intn(4) == 0 {
			op.followUp = works[rng.Intn(len(works))]
		}
		ops[i] = op
	}
	return ops
}

// psEvent is one observation of a run: a completion (task id, time) or a
// post-op sample of Load and Rate.
type psEvent struct {
	what string
	id   int
	bits uint64
}

// runSchedule replays ops on a fresh kernel and records completions and
// the resource's Load and Rate after every op.
func runSchedule(ops []psOp, capacity, perTask float64, mk func(*sim.Kernel, float64, float64) server) []psEvent {
	k := sim.NewKernel()
	s := mk(k, capacity, perTask)
	var log []psEvent
	var live []func() bool // handles in creation order; nil once stopped or done
	var start func(work, followUp float64)
	start = func(work, followUp float64) {
		id := len(live)
		live = append(live, nil)
		live[id] = s.start(work, func() {
			live[id] = nil
			log = append(log, psEvent{"done", id, math.Float64bits(k.Now())})
			if followUp >= 0 {
				start(followUp, -1)
			}
		})
	}
	for _, op := range ops {
		k.At(op.at, func() {
			switch op.kind {
			case 0:
				start(op.work, op.followUp)
			case 1:
				live = append(live, s.addLoad())
			case 2:
				var idx []int
				for i, h := range live {
					if h != nil {
						idx = append(idx, i)
					}
				}
				if len(idx) == 0 {
					return
				}
				i := idx[int(op.pick*float64(len(idx)))]
				if !live[i]() {
					log = append(log, psEvent{"stale-stop", i, 0})
				}
				live[i] = nil
			}
			log = append(log, psEvent{"load", s.load(), math.Float64bits(s.rate())})
		})
	}
	if err := k.Run(); err != nil {
		panic(err)
	}
	return log
}

// TestResourceMatchesReference: on seeded random schedules of Start (zero
// work included), AddLoad and Stop with equal-time ties, Resource completes
// the same tasks at bit-identical times, in the same order, as the
// map-based reference algorithm, and reports the same Load and Rate.
func TestResourceMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := randomSchedule(rng, 30+rng.Intn(200))
		capacity := float64(1 + rng.Intn(8))
		perTask := []float64{0, 1, 0.5}[rng.Intn(3)]
		got := runSchedule(ops, capacity, perTask, newServer)
		want := runSchedule(ops, capacity, perTask, newRefServer)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d observations, reference %d", seed, len(got), len(want))
		}
		done := 0
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: observation %d = %+v, reference %+v", seed, i, got[i], want[i])
			}
			if got[i].what == "done" {
				done++
			}
		}
		if done == 0 {
			t.Fatalf("seed %d: schedule completed no task", seed)
		}
	}
}

// TestLoadStopAllocations: a polling load is one allocation, its handle,
// however many loads are attached; and Task stays in the 48-byte size
// class.
func TestLoadStopAllocations(t *testing.T) {
	k := sim.NewKernel()
	r := NewResource(k, "cpu", 20, 1)
	for i := 0; i < 1000; i++ {
		r.AddLoad()
	}
	if n := testing.AllocsPerRun(1000, func() { r.AddLoad().Stop() }); n > 1 {
		t.Errorf("AddLoad+Stop allocates %v objects, want <= 1", n)
	}
	if r.Load() != 1000 {
		t.Errorf("Load = %d after balanced AddLoad/Stop, want 1000", r.Load())
	}
	if unsafe.Sizeof(uintptr(0)) == 8 && unsafe.Sizeof(Task{}) != 48 {
		t.Errorf("sizeof(Task) = %d, want 48", unsafe.Sizeof(Task{}))
	}
}

// BenchmarkStartStop mirrors perfbench's ps.startstop_ns probe: Start and
// Stop of one finite task on a resource with n polling loads attached.
// Every batch runs on a fresh kernel, so the cancelled completion timers
// the loop leaves queued never pile up.
func BenchmarkStartStop(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			const batch = 4096
			for done := 0; done < b.N; done += batch {
				b.StopTimer()
				r := NewResource(sim.NewKernel(), "cpu", 20, 1)
				for i := 0; i < n; i++ {
					r.AddLoad()
				}
				b.StartTimer()
				for i := 0; i < min(batch, b.N-done); i++ {
					r.Start(1, nil).Stop()
				}
			}
		})
	}
}
