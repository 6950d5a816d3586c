package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Payload is a message body. Size is the number of bytes on the wire; Data
// optionally carries real bytes (len(Data) == Size) for correctness-checked
// runs. Emulation-scale runs use virtual payloads (Data == nil) so that
// multi-gigabyte redistributions cost no host memory.
type Payload struct {
	Size int64
	Data []byte
}

// Virtual returns a payload of size bytes with no materialized data.
func Virtual(size int64) Payload {
	if size < 0 {
		panic(fmt.Sprintf("mpi: negative payload size %d", size))
	}
	return Payload{Size: size}
}

// Bytes returns a payload wrapping real data.
func Bytes(data []byte) Payload {
	return Payload{Size: int64(len(data)), Data: data}
}

// AppendFloat64s appends the little-endian encoding of xs (8 bytes per
// element) to dst and returns the extended buffer. Callers on hot paths
// reuse one scratch buffer across messages (Isend clones the payload
// synchronously, so the scratch may be overwritten as soon as Isend
// returns) instead of allocating per message.
func AppendFloat64s(dst []byte, xs ...float64) []byte {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		dst = append(dst, b[:]...)
	}
	return dst
}

// Float64s encodes a float64 slice as a real payload (8 bytes per element,
// little endian).
func Float64s(xs []float64) Payload {
	data := AppendFloat64s(make([]byte, 0, 8*len(xs)), xs...)
	return Payload{Size: int64(len(data)), Data: data}
}

// Float64sInto decodes a real payload into dst, reusing its backing array
// when capacity allows, and returns the decoded slice. It panics on virtual
// payloads or sizes that are not multiples of 8.
func (p Payload) Float64sInto(dst []float64) []float64 {
	n := p.elems("AsFloat64s")
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(p.Data[8*i:]))
	}
	return dst
}

// AsFloat64s decodes a real payload into a fresh float64 slice. It panics
// on virtual payloads or sizes that are not multiples of 8.
func (p Payload) AsFloat64s() []float64 {
	return p.Float64sInto(nil)
}

// AppendInt64s appends the little-endian encoding of xs to dst and returns
// the extended buffer; the int64 counterpart of AppendFloat64s.
func AppendInt64s(dst []byte, xs ...int64) []byte {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		dst = append(dst, b[:]...)
	}
	return dst
}

// Int64s encodes an int64 slice as a real payload.
func Int64s(xs []int64) Payload {
	data := AppendInt64s(make([]byte, 0, 8*len(xs)), xs...)
	return Payload{Size: int64(len(data)), Data: data}
}

// Int64At decodes element i of an int64-encoded payload without
// allocating — the decode half of Int64s and of the scratch-buffer idiom
// control messages use (see AppendInt64s).
func (p Payload) Int64At(i int) int64 {
	n := p.elems("Int64At")
	if i < 0 || i >= n {
		panic(fmt.Sprintf("mpi: Int64At(%d) of %d elements", i, n))
	}
	return int64(binary.LittleEndian.Uint64(p.Data[8*i:]))
}

// elems validates an 8-byte-element payload and returns its element count.
func (p Payload) elems(op string) int {
	if p.Data == nil && p.Size > 0 {
		panic("mpi: " + op + " on virtual payload")
	}
	if len(p.Data)%8 != 0 {
		panic(fmt.Sprintf("mpi: payload size %d not a multiple of 8", len(p.Data)))
	}
	return len(p.Data) / 8
}

// IsVirtual reports whether the payload carries no real bytes.
func (p Payload) IsVirtual() bool { return p.Data == nil }

// Slice returns the sub-payload covering bytes [lo, hi). For virtual
// payloads it simply shrinks the size.
func (p Payload) Slice(lo, hi int64) Payload {
	if lo < 0 || hi < lo || hi > p.Size {
		panic(fmt.Sprintf("mpi: payload slice [%d,%d) of %d bytes", lo, hi, p.Size))
	}
	if p.Data == nil {
		return Payload{Size: hi - lo}
	}
	return Payload{Size: hi - lo, Data: p.Data[lo:hi]}
}

// Op combines a received buffer into an accumulator for reductions. Both
// slices have equal length; the result is written into dst.
type Op func(dst, src []byte)

// OpSumFloat64 adds float64 vectors elementwise.
func OpSumFloat64(dst, src []byte) {
	if len(dst) != len(src) || len(dst)%8 != 0 {
		panic("mpi: OpSumFloat64 on mismatched buffers")
	}
	for i := 0; i < len(dst); i += 8 {
		a := math.Float64frombits(binary.LittleEndian.Uint64(dst[i:]))
		b := math.Float64frombits(binary.LittleEndian.Uint64(src[i:]))
		binary.LittleEndian.PutUint64(dst[i:], math.Float64bits(a+b))
	}
}

// combine merges src into dst under op, handling virtual payloads (which
// carry no data to combine).
func combine(dst *Payload, src Payload, op Op) {
	if dst.Size != src.Size {
		panic(fmt.Sprintf("mpi: reduce size mismatch %d vs %d", dst.Size, src.Size))
	}
	if dst.Data == nil || src.Data == nil || op == nil {
		return
	}
	op(dst.Data, src.Data)
}

// clonePayload deep-copies a payload so reductions cannot alias caller
// buffers.
func clonePayload(p Payload) Payload {
	if p.Data == nil {
		return p
	}
	d := make([]byte, len(p.Data))
	copy(d, p.Data)
	return Payload{Size: p.Size, Data: d}
}
