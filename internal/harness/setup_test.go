package harness

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/netmodel"
	"repro/internal/synthapp"
)

// TestConcurrentWorldsMatchSequential builds and runs worlds from several
// goroutines at once, some with equal seeds and some with different ones,
// and checks each against a world built and run alone with the same seed:
// the run's result (its end time included) and the next noise draws of the
// machine must match bit for bit. The seeds are ones no other test uses,
// so the goroutines build their snapshots of the noise stream
// concurrently; under -race this covers the shared snapshot cache.
func TestConcurrentWorldsMatchSequential(t *testing.T) {
	s := DefaultSetup(netmodel.Ethernet10G())
	p, cfg := Pair{NS: 20, NT: 40}, core.Config{Spawn: core.Merge, Comm: core.P2P, Overlap: core.Sync}
	type outcome struct {
		res   synthapp.Result
		noise []float64
	}
	run := func(rep int) (outcome, error) {
		w := s.NewWorld(rep)
		defer w.Release()
		res, err := synthapp.Run(w, synthapp.RunParams{Cfg: s.Cfg, Malleability: cfg, NS: p.NS, NT: p.NT})
		o := outcome{res: res, noise: make([]float64, 1000)}
		for i := range o.noise {
			o.noise[i] = w.Machine().Noise()
		}
		return o, err
	}
	reps := []int{700, 700, 700, 701, 702, 703}
	got := make([]outcome, len(reps))
	errs := make([]error, len(reps))
	var wg sync.WaitGroup
	for i, rep := range reps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = run(rep)
		}()
	}
	wg.Wait()
	for i, rep := range reps {
		if errs[i] != nil {
			t.Fatalf("rep %d: %v", rep, errs[i])
		}
		want, err := run(rep)
		if err != nil {
			t.Fatalf("rep %d alone: %v", rep, err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("rep %d: concurrent world differs from one run alone:\nconcurrent %+v\nalone      %+v",
				rep, got[i].res, want.res)
		}
	}
	if reflect.DeepEqual(got[0].noise, got[3].noise) {
		t.Error("different seeds drew the same noise")
	}
}

// BenchmarkNewWorld times Setup.NewWorld: a kernel, the paper's machine
// with its seeded noise stream, and an empty MPI world.
func BenchmarkNewWorld(b *testing.B) {
	s := DefaultSetup(netmodel.Ethernet10G())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.NewWorld(i % s.Reps)
	}
}
