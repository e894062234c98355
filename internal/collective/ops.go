package collective

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Typed operand codecs and reduction operators over []byte payloads. MPI
// datatypes are a large surface; the experiments need int64 and float64
// vectors, which these helpers provide with explicit little-endian
// encoding so the TCP fabric sees identical bytes.

// EncodeInt64s packs v into a little-endian byte payload.
func EncodeInt64s(v []int64) []byte {
	out := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(x))
	}
	return out
}

// DecodeInt64s unpacks a payload produced by EncodeInt64s.
func DecodeInt64s(b []byte) ([]int64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("collective: int64 payload length %d not a multiple of 8", len(b))
	}
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out, nil
}

// EncodeFloat64s packs v into a little-endian byte payload.
func EncodeFloat64s(v []float64) []byte {
	out := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(x))
	}
	return out
}

// DecodeFloat64s unpacks a payload produced by EncodeFloat64s.
func DecodeFloat64s(b []byte) ([]float64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("collective: float64 payload length %d not a multiple of 8", len(b))
	}
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out, nil
}

// int64Op lifts an elementwise int64 operator to an Op that combines in
// place: each element of a is decoded, combined with b's and written back
// over the little-endian bytes of a, which is returned — no decoded
// vectors, no fresh result. Mismatched lengths truncate to the shorter
// side (MPI would call this erroneous; we keep it total to stay
// panic-free in reduction trees), and a ragged operand returns a as is.
func int64Op(f func(a, b int64) int64) Op {
	return func(a, b []byte) []byte {
		if len(a)%8 != 0 || len(b)%8 != 0 {
			return a
		}
		n := min(len(a), len(b))
		for i := 0; i < n; i += 8 {
			x := int64(binary.LittleEndian.Uint64(a[i:]))
			y := int64(binary.LittleEndian.Uint64(b[i:]))
			binary.LittleEndian.PutUint64(a[i:], uint64(f(x, y)))
		}
		return a[:n]
	}
}

// float64Op lifts an elementwise float64 operator to an in-place Op, as
// int64Op does.
func float64Op(f func(a, b float64) float64) Op {
	return func(a, b []byte) []byte {
		if len(a)%8 != 0 || len(b)%8 != 0 {
			return a
		}
		n := min(len(a), len(b))
		for i := 0; i < n; i += 8 {
			x := math.Float64frombits(binary.LittleEndian.Uint64(a[i:]))
			y := math.Float64frombits(binary.LittleEndian.Uint64(b[i:]))
			binary.LittleEndian.PutUint64(a[i:], math.Float64bits(f(x, y)))
		}
		return a[:n]
	}
}

// Predefined reduction operators, mirroring MPI_SUM / MPI_MIN / MPI_MAX
// over int64 and float64 vectors. Each combines into its first operand
// (see Op).
var (
	// SumInt64 adds int64 vectors elementwise (MPI_SUM).
	SumInt64 = int64Op(func(a, b int64) int64 { return a + b })
	// MinInt64 takes the elementwise minimum (MPI_MIN).
	MinInt64 = int64Op(func(a, b int64) int64 {
		if b < a {
			return b
		}
		return a
	})
	// MaxInt64 takes the elementwise maximum (MPI_MAX).
	MaxInt64 = int64Op(func(a, b int64) int64 {
		if b > a {
			return b
		}
		return a
	})
	// SumFloat64 adds float64 vectors elementwise (MPI_SUM).
	SumFloat64 = float64Op(func(a, b float64) float64 { return a + b })
	// MaxFloat64 takes the elementwise maximum (MPI_MAX).
	MaxFloat64 = float64Op(math.Max)
	// MinFloat64 takes the elementwise minimum (MPI_MIN).
	MinFloat64 = float64Op(math.Min)
)
