package tensor

import (
	"fmt"
	"math"
)

// MatMul computes dst = a·b, parallelised over row blocks of a on pool
// with work-stealing dispatch (row results are per-row, so stealing
// never reorders a reduction). Shapes: a is m×k, b is k×n, dst is m×n.
// dst must not alias a or b. MatMul, MatMulBT and MatMulAT follow the
// kernel contract in gemm.go, so results depend neither on the worker
// count nor on the architecture.
func MatMul(pool *Pool, dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch (%dx%d)·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	k := a.Cols
	gemmJobs.Get().(*gemmJob).do(pool, a.Rows, dst.Data, a.Data, k, 1, b.Data, k, b.Cols)
}

// MatMulBT computes dst = a·bᵀ. Shapes: a is m×k, b is n×k, dst is m×n.
// bᵀ is packed once per call into pooled scratch, then rows run as in
// MatMul.
func MatMulBT(pool *Pool, dst, a, b *Matrix) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulBT shape mismatch (%dx%d)·(%dx%d)T->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	k, n := a.Cols, b.Rows
	g := gemmJobs.Get().(*gemmJob)
	if cap(g.packed) < k*n {
		g.packed = make([]float32, k*n)
	}
	bt := g.packed[:k*n]
	for j := 0; j < n; j++ {
		for p, v := range b.Data[j*k : (j+1)*k] {
			bt[p*n+j] = v
		}
	}
	g.do(pool, a.Rows, dst.Data, a.Data, k, 1, bt, k, n)
}

// MatMulAT computes dst = aᵀ·b. Shapes: a is k×m, b is k×n, dst is m×n.
// The parallel split is over columns of a (rows of dst) so partial sums
// never race.
func MatMulAT(pool *Pool, dst, a, b *Matrix) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulAT shape mismatch (%dx%d)T·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	m := a.Cols
	gemmJobs.Get().(*gemmJob).do(pool, m, dst.Data, a.Data, 1, m, b.Data, a.Rows, b.Cols)
}

// Add computes dst += src elementwise. Shapes must match.
func Add(dst, src *Matrix) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic("tensor: Add shape mismatch")
	}
	for i, v := range src.Data {
		dst.Data[i] += v
	}
}

// AddScaled computes dst += alpha*src elementwise. Shapes must match.
func AddScaled(dst *Matrix, alpha float32, src *Matrix) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic("tensor: AddScaled shape mismatch")
	}
	for i, v := range src.Data {
		dst.Data[i] += alpha * v
	}
}

// Scale multiplies every element of m by alpha.
func Scale(m *Matrix, alpha float32) {
	for i := range m.Data {
		m.Data[i] *= alpha
	}
}

// AddRowVector adds the length-Cols vector v to every row of dst.
func AddRowVector(dst *Matrix, v []float32) {
	if len(v) != dst.Cols {
		panic("tensor: AddRowVector length mismatch")
	}
	for i := 0; i < dst.Rows; i++ {
		row := dst.Row(i)
		for j, b := range v {
			row[j] += b
		}
	}
}

// ColSum accumulates the column sums of m into dst (len Cols). dst is
// overwritten.
func ColSum(dst []float32, m *Matrix) {
	if len(dst) != m.Cols {
		panic("tensor: ColSum length mismatch")
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			dst[j] += v
		}
	}
}

// ReLU computes dst = max(src, 0) elementwise. dst and src may alias.
func ReLU(dst, src *Matrix) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic("tensor: ReLU shape mismatch")
	}
	for i, v := range src.Data {
		if v > 0 {
			dst.Data[i] = v
		} else {
			dst.Data[i] = 0
		}
	}
}

// ReLUBackward computes dGrad = grad where act > 0 else 0, writing into
// dst. act must be the ReLU *output* (or input; they share sign).
func ReLUBackward(dst, grad, act *Matrix) {
	if dst.Rows != grad.Rows || dst.Cols != grad.Cols || act.Rows != grad.Rows || act.Cols != grad.Cols {
		panic("tensor: ReLUBackward shape mismatch")
	}
	for i, g := range grad.Data {
		if act.Data[i] > 0 {
			dst.Data[i] = g
		} else {
			dst.Data[i] = 0
		}
	}
}

// SoftmaxRows computes a numerically-stable row-wise softmax of src into
// dst. dst and src may alias. Degenerate shapes (no rows, or no columns
// — an empty predict batch) are a no-op rather than a panic.
func SoftmaxRows(dst, src *Matrix) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic("tensor: SoftmaxRows shape mismatch")
	}
	if src.Cols == 0 {
		return
	}
	for i := 0; i < src.Rows; i++ {
		in := src.Row(i)
		out := dst.Row(i)
		max := in[0]
		for _, v := range in[1:] {
			if v > max {
				max = v
			}
		}
		var sum float64
		for j, v := range in {
			e := math.Exp(float64(v - max))
			out[j] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for j := range out {
			out[j] *= inv
		}
	}
}

// ArgMaxRows writes the index of the maximum element of each row of m into
// dst (len Rows). A zero-column matrix has no maximum: every dst entry is
// set to -1 instead of panicking.
func ArgMaxRows(dst []int, m *Matrix) {
	if len(dst) != m.Rows {
		panic("tensor: ArgMaxRows length mismatch")
	}
	if m.Cols == 0 {
		for i := range dst {
			dst[i] = -1
		}
		return
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		best, bestV := 0, row[0]
		for j, v := range row[1:] {
			if v > bestV {
				best, bestV = j+1, v
			}
		}
		dst[i] = best
	}
}

// FrobeniusNorm returns the Frobenius norm of m.
func FrobeniusNorm(m *Matrix) float64 {
	var s float64
	for _, v := range m.Data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}
