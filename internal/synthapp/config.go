// Package synthapp reimplements the paper's synthetic application [15,17]:
// a configurable iterative MPI program whose per-iteration computational
// behaviour and communication pattern emulate a real code, and which can be
// reconfigured mid-run with any of the twelve malleability variants.
//
// The five modules of the original tool map as follows: Initialization
// (configuration parsing and run setup), Application emulation (the stage
// loop), Malleability (core.Reconfig driven from the checkpoint at the top
// of each iteration, Algorithms 3/4), Monitoring (the timing collector),
// and Completion (result aggregation when each process hierarchy level
// finishes).
package synthapp

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sync"

	"repro/internal/core"
	"repro/internal/partition"
)

// StageType enumerates the emulated per-iteration operations.
type StageType string

const (
	// StageCompute consumes CPU: Work single-core seconds divided over the
	// active processes (a perfectly parallel matrix kernel).
	StageCompute StageType = "compute"
	// StageAllreduce emulates an MPI_Allreduce of Bytes (latency-dominated
	// for the paper's single double).
	StageAllreduce StageType = "allreduce"
	// StageAllgatherv emulates an MPI_Allgatherv assembling a Bytes-sized
	// vector: a ring exchange whose per-NIC traffic is Bytes*(p-1)/p.
	StageAllgatherv StageType = "allgatherv"
	// StageSendrecv emulates a neighbor exchange of Bytes per pair.
	StageSendrecv StageType = "sendrecv"
	// StageBcast emulates an MPI_Bcast of Bytes from rank 0: a binomial
	// tree of ⌈log2 p⌉ rounds, with the payload crossing each level.
	StageBcast StageType = "bcast"
	// StageBarrier emulates an MPI_Barrier (⌈log2 p⌉ latency rounds).
	StageBarrier StageType = "barrier"
)

// Stage is one per-iteration operation of the emulated application.
type Stage struct {
	Type StageType `json:"type"`
	// Work is the total single-core seconds per iteration for compute
	// stages; each of p processes performs Work/p.
	Work float64 `json:"work,omitempty"`
	// Bytes is the payload size for communication stages.
	Bytes int64 `json:"bytes,omitempty"`
}

// DataKind selects the item type backing a DataSpec.
type DataKind string

const (
	// DenseData is a block-distributed dense array.
	DenseData DataKind = "dense"
	// SparseData is a row-block CSR matrix; wire sizes follow the non-zero
	// profile.
	SparseData DataKind = "sparse"
)

// DataSpec declares one distributed object the reconfiguration moves.
type DataSpec struct {
	Name     string   `json:"name"`
	Kind     DataKind `json:"kind"`
	Elements int64    `json:"elements"`
	// ElemSize is bytes per element (dense) or per non-zero (sparse).
	ElemSize int64 `json:"elemSize"`
	Constant bool  `json:"constant"`
	// NnzPerRow is the average non-zeros per row for sparse items.
	NnzPerRow float64 `json:"nnzPerRow,omitempty"`
}

// Config parameterizes one synthetic-application run, as the original
// tool's configuration file does.
type Config struct {
	Name string `json:"name"`
	// TotalIterations is the iteration budget across the whole run
	// (sources and targets combined; overlapped iterations count).
	TotalIterations int `json:"totalIterations"`
	// ReconfigIteration is the checkpoint that triggers the single
	// reconfiguration; negative disables malleability.
	ReconfigIteration int `json:"reconfigIteration"`

	Stages []Stage    `json:"stages"`
	Data   []DataSpec `json:"data"`

	// Reconfigs defines a multi-stage process hierarchy (the original
	// tool's levels): each stage reconfigures to Procs processes at its
	// checkpoint iteration. When non-empty it overrides ReconfigIteration.
	Reconfigs []ReconfigStage `json:"reconfigs,omitempty"`

	// SampleIterations controls steady-state batching: the emulator times
	// this many real iterations and fast-forwards the rest of a steady
	// phase. Zero runs every iteration individually.
	SampleIterations int `json:"sampleIterations,omitempty"`

	// CheckpointCost is the time each malleability checkpoint spends
	// contacting the RMS and agreeing on completion.
	CheckpointCost float64 `json:"checkpointCost,omitempty"`
}

// ReconfigStage is one level of the process hierarchy.
type ReconfigStage struct {
	// AtIteration is the checkpoint triggering the stage.
	AtIteration int `json:"atIteration"`
	// Procs is the stage's target process count.
	Procs int `json:"procs"`
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c.TotalIterations <= 0 {
		return fmt.Errorf("synthapp: totalIterations = %d", c.TotalIterations)
	}
	if c.ReconfigIteration >= c.TotalIterations {
		return fmt.Errorf("synthapp: reconfigIteration %d beyond %d iterations",
			c.ReconfigIteration, c.TotalIterations)
	}
	if len(c.Stages) == 0 {
		return fmt.Errorf("synthapp: no stages")
	}
	for i, s := range c.Stages {
		switch s.Type {
		case StageCompute:
			if s.Work < 0 {
				return fmt.Errorf("synthapp: stage %d negative work", i)
			}
		case StageAllreduce, StageAllgatherv, StageSendrecv, StageBcast, StageBarrier:
			if s.Bytes < 0 {
				return fmt.Errorf("synthapp: stage %d negative bytes", i)
			}
		default:
			return fmt.Errorf("synthapp: stage %d unknown type %q", i, s.Type)
		}
	}
	prev := -1
	for i, r := range c.Reconfigs {
		if r.AtIteration <= prev || r.AtIteration >= c.TotalIterations {
			return fmt.Errorf("synthapp: reconfig stage %d at iteration %d not strictly increasing within (0,%d)",
				i, r.AtIteration, c.TotalIterations)
		}
		if r.Procs <= 0 {
			return fmt.Errorf("synthapp: reconfig stage %d to %d processes", i, r.Procs)
		}
		prev = r.AtIteration
	}
	seen := map[string]bool{}
	for i, d := range c.Data {
		if d.Name == "" || seen[d.Name] {
			return fmt.Errorf("synthapp: data %d has empty or duplicate name", i)
		}
		seen[d.Name] = true
		if d.Elements < 0 || d.ElemSize <= 0 {
			return fmt.Errorf("synthapp: data %q has elements=%d elemSize=%d", d.Name, d.Elements, d.ElemSize)
		}
		if d.Kind != DenseData && d.Kind != SparseData {
			return fmt.Errorf("synthapp: data %q unknown kind %q", d.Name, d.Kind)
		}
		if d.Kind == SparseData && d.NnzPerRow <= 0 {
			return fmt.Errorf("synthapp: sparse data %q needs nnzPerRow", d.Name)
		}
	}
	return nil
}

// WriteFile serializes the configuration as JSON.
func (c *Config) WriteFile(path string) error {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadConfig reads a JSON configuration file.
func LoadConfig(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c Config
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("synthapp: parsing %s: %w", path, err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// CGRows is the row count of the emulated system (Queen_4147).
const CGRows = 4_147_110

// CGNnzPerRow is the average non-zero count per row of Queen_4147.
const CGNnzPerRow = 79.45

// CGConfig builds the §4.2 emulation: six stages (three compute, two
// Allreduce of one double, one Allgatherv of N doubles ≈ 33 MB) over the
// Queen_4147-shaped data set (~3.95 GB constant matrix, ~100 MB variable
// vectors, 96.6% asynchronously redistributable), reconfiguring at
// iteration 500 of 1000.
//
// iterSeconds is the target duration of one iteration when running on
// procsRef processes; the compute stages are sized so that computation
// dominates at that scale, as in the paper's runs.
func CGConfig(iterSeconds float64, procsRef int) *Config {
	computeTotal := iterSeconds * float64(procsRef) * 0.85 // compute share
	return &Config{
		Name:              "cg-queen4147",
		TotalIterations:   1000,
		ReconfigIteration: 500,
		Stages: []Stage{
			{Type: StageCompute, Work: computeTotal * 0.6}, // SpMV
			{Type: StageAllgatherv, Bytes: CGRows * 8},     // full vector
			{Type: StageCompute, Work: computeTotal * 0.2}, // dot + axpy
			{Type: StageAllreduce, Bytes: 8},
			{Type: StageCompute, Work: computeTotal * 0.2}, // dot + axpy
			{Type: StageAllreduce, Bytes: 8},
		},
		Data: []DataSpec{
			{Name: "A", Kind: SparseData, Elements: CGRows, ElemSize: 12, Constant: true, NnzPerRow: CGNnzPerRow},
			{Name: "b", Kind: DenseData, Elements: CGRows, ElemSize: 8},
			{Name: "x", Kind: DenseData, Elements: CGRows, ElemSize: 8},
			{Name: "r", Kind: DenseData, Elements: CGRows, ElemSize: 8},
			{Name: "p", Kind: DenseData, Elements: CGRows, ElemSize: 8},
		},
		SampleIterations: 3,
		CheckpointCost:   120e-6,
	}
}

// ScaleConfig builds the extreme-scale fault-campaign application: a
// deliberately small iteration loop (the cell's cost is the 10k-rank
// redistribution and its recovery, not the emulated app) over one
// variable dense item of elemsPerRank 8-byte elements per source rank,
// reconfiguring at iteration 1 of 3. Pair it with a Config.MemCeiling of
// a fraction of the 8*elemsPerRank-byte block so the redistribution runs
// a multi-wave schedule — the geometry wave-addressed fault plans
// (fault.Action.Wave) and the rung-0 incomplete-wave contract assume.
func ScaleConfig(ns int, elemsPerRank int64) *Config {
	return &Config{
		Name:              fmt.Sprintf("scale-%d", ns),
		TotalIterations:   3,
		ReconfigIteration: 1,
		Stages: []Stage{
			{Type: StageCompute, Work: 1e-4 * float64(ns)},
			{Type: StageAllreduce, Bytes: 8},
		},
		Data: []DataSpec{
			{Name: "x", Kind: DenseData, Elements: int64(ns) * elemsPerRank, ElemSize: 8},
		},
		CheckpointCost: 120e-6,
	}
}

// TotalDataBytes reports the wire size of all declared data and the
// fraction that is constant (asynchronously redistributable).
func (c *Config) TotalDataBytes() (total int64, constantFraction float64) {
	var constant int64
	for _, d := range c.Data {
		var bytes int64
		if d.Kind == SparseData {
			bytes = int64(float64(d.Elements) * d.NnzPerRow * float64(d.ElemSize))
		} else {
			bytes = d.Elements * d.ElemSize
		}
		total += bytes
		if d.Constant {
			constant += bytes
		}
	}
	if total > 0 {
		constantFraction = float64(constant) / float64(total)
	}
	return total, constantFraction
}

// buildStore instantiates the declared data as virtual items with this
// rank's block under an ns-way distribution (empty when rank is outside).
func (c *Config) buildStore(ns, rank int, rowPtrs map[string][]int64) *core.Store {
	st := core.NewStore()
	for _, d := range c.Data {
		switch d.Kind {
		case DenseData:
			it := core.NewDenseVirtual(d.Name, d.Elements, d.ElemSize, d.Constant)
			lo, hi := blockOf(d.Elements, ns, rank)
			it.SetBlock(lo, hi)
			st.Register(it)
		case SparseData:
			it := core.NewSparseVirtual(d.Name, rowPtrs[d.Name], d.ElemSize, 0, d.Constant)
			lo, hi := blockOf(d.Elements, ns, rank)
			it.SetBlock(lo, hi)
			st.Register(it)
		}
	}
	return st
}

// rowPtrCache shares the synthesized sparse profiles across runs: the
// Queen-scale row pointer is 33 MB and identical for every run with the
// same (rows, density).
var rowPtrCache sync.Map

type rowPtrKey struct {
	rows int64
	nnz  float64
}

// rowPtrFor synthesizes the sparse profile: a deterministic ±25% modulation
// around the configured average, like Queen4147RowPtr. The returned slice
// is shared and must not be mutated.
func rowPtrFor(d DataSpec) []int64 {
	key := rowPtrKey{rows: d.Elements, nnz: d.NnzPerRow}
	if rp, ok := rowPtrCache.Load(key); ok {
		return rp.([]int64)
	}
	rows := d.Elements
	rp := make([]int64, rows+1)
	var acc float64
	for i := int64(0); i < rows; i++ {
		f := 1 + 0.25*math.Sin(float64(i)*0.001)
		acc += d.NnzPerRow * f
		rp[i+1] = int64(acc)
	}
	actual, _ := rowPtrCache.LoadOrStore(key, rp)
	return actual.([]int64)
}

// blockOf is the block distribution used by the emulated data; it matches
// the redistribution planner's partition exactly.
func blockOf(n int64, p, rank int) (int64, int64) {
	if rank < 0 || rank >= p {
		return n, n
	}
	d := partition.NewBlockDist(n, p)
	return d.Lo(rank), d.Hi(rank)
}
