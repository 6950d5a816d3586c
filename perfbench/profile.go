package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuLayers are the layers CPU samples are attributed to: the packages
// under repro/internal (subpackages fold into the layer named by their
// last path element), "other" for the remaining repro/internal packages,
// and go-runtime for samples with no repro/internal frame at all.
var cpuLayers = []string{
	"sim", "ps", "netmodel", "mpi", "partition", "core", "fault", "synthapp",
	"harness", "obs", "trace", "workload", "rms", "cluster", "other", "go-runtime",
}

// layerOf maps a fully qualified function name to its layer, or "" when
// the function is outside repro/internal.
func layerOf(fn string) string {
	const prefix = "repro/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return ""
	}
	path := fn[len(prefix):]
	// The package path ends at the first '.' after the last '/'.
	slash := strings.LastIndexByte(path, '/')
	if dot := strings.IndexByte(path[slash+1:], '.'); dot >= 0 {
		path = path[:slash+1+dot]
	}
	switch path {
	case "sim/ps":
		return "ps"
	case "trace/analyze":
		return "trace"
	}
	for _, l := range cpuLayers {
		if l == path {
			return l
		}
	}
	return "other"
}

// cpuShares decodes a runtime/pprof CPU profile and returns each layer's
// share of sampled CPU time. A sample goes to the innermost repro/internal
// frame on its stack (inlined frames included), otherwise to go-runtime.
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	funcLayer := map[uint64]string{}
	for id, name := range p.funcName {
		if int(name) < len(p.strings) {
			funcLayer[id] = layerOf(p.strings[name])
		}
	}
	byLayer := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		v := float64(s.value)
		total += v
		layer := "go-runtime"
	stack:
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				if l := funcLayer[fn]; l != "" {
					layer = l
					break stack
				}
			}
		}
		byLayer[layer] += v
	}
	out := map[string]float64{}
	for _, l := range cpuLayers {
		if total > 0 {
			out[l] = byLayer[l] / total
		}
	}
	return out, nil
}

// profile is the subset of profile.proto the attribution needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
}

type sample struct {
	locs  []uint64 // leaf first
	value int64    // the last sample value: CPU nanoseconds
}

// protobuf wire types.
const (
	wireVarint = 0
	wire64     = 1
	wireBytes  = 2
	wire32     = 5
)

type pbuf struct{ b []byte }

func (p *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, io.ErrUnexpectedEOF
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("varint overflow")
}

// field reads one field header and its payload: a varint value, or the
// bytes of a length-delimited field.
func (p *pbuf) field() (num int, wt int, v uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wt = int(key>>3), int(key&7)
	switch wt {
	case wireVarint:
		v, err = p.varint()
	case wire64:
		if len(p.b) < 8 {
			return 0, 0, 0, nil, io.ErrUnexpectedEOF
		}
		p.b = p.b[8:]
	case wire32:
		if len(p.b) < 4 {
			return 0, 0, 0, nil, io.ErrUnexpectedEOF
		}
		p.b = p.b[4:]
	case wireBytes:
		var n uint64
		if n, err = p.varint(); err == nil {
			if uint64(len(p.b)) < n {
				return 0, 0, 0, nil, io.ErrUnexpectedEOF
			}
			data, p.b = p.b[:n], p.b[n:]
		}
	default:
		err = fmt.Errorf("wire type %d", wt)
	}
	return num, wt, v, data, err
}

// uints decodes a repeated integer field, packed or not.
func uints(wt int, v uint64, data []byte, dst []uint64) ([]uint64, error) {
	if wt == wireVarint {
		return append(dst, v), nil
	}
	q := pbuf{data}
	for len(q.b) > 0 {
		x, err := q.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	top := pbuf{b}
	for len(top.b) > 0 {
		num, _, _, data, err := top.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case 2: // Sample
			var s sample
			var vals []uint64
			m := pbuf{data}
			for len(m.b) > 0 {
				f, wt, v, d, err := m.field()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					if s.locs, err = uints(wt, v, d, s.locs); err != nil {
						return nil, err
					}
				case 2:
					if vals, err = uints(wt, v, d, vals); err != nil {
						return nil, err
					}
				}
			}
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			var id uint64
			var funcs []uint64
			m := pbuf{data}
			for len(m.b) > 0 {
				f, _, v, d, err := m.field()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 4: // Line
					l := pbuf{d}
					for len(l.b) > 0 {
						lf, _, lv, _, err := l.field()
						if err != nil {
							return nil, err
						}
						if lf == 1 {
							funcs = append(funcs, lv)
						}
					}
				}
			}
			p.locFuncs[id] = funcs
		case 5: // Function
			var id uint64
			var name int64
			m := pbuf{data}
			for len(m.b) > 0 {
				f, _, v, _, err := m.field()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}
			p.funcName[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
	}
	return p, nil
}
