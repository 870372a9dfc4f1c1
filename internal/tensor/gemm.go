package tensor

import "sync"

// The dense kernels share one contract, which keeps every result
// bit-identical to a plain row loop and lets nn.Infer's fused row kernel
// match Forward exactly: each output element starts from +0 and adds the
// rounded products a·b in ascending p, skipping terms whose a is ±0 (a
// NaN a is not skipped), with no fused multiply-add.
//
// The assembly strip on amd64 multiplies every term instead of skipping.
// While b is finite that is the same result to the bit: a zero term is
// ±0, and an accumulator that starts from +0 never becomes -0 under
// addition, so adding ±0 leaves it unchanged. A zero a against an Inf or
// NaN b makes the sum NaN, so a strip whose result holds a NaN is
// recomputed by gemmStripGo, which skips. Skipping only shows against an
// Inf or NaN in b (0·Inf is NaN); MatMulBT, which never skipped, now
// skips there too.

// gemmJob carries one kernel call's operands to the pool's workers: row
// i of dst (rows×n) is Σ_p a[i·lda + p·sa]·b[p·n : (p+1)·n] over p < k.
// Jobs are recycled with their row function bound once, so a call
// allocates nothing in steady state; packed holds MatMulBT's bᵀ.
type gemmJob struct {
	dst, a, b []float32
	lda, sa   int
	k, n      int
	packed    []float32
	rows      func(lo, hi int)
}

var gemmJobs = sync.Pool{New: func() any {
	g := new(gemmJob)
	g.rows = g.run
	return g
}}

// run computes rows [lo, hi) of the job.
func (g *gemmJob) run(lo, hi int) {
	for i := lo; i < hi; i++ {
		gemmRow(g.dst[i*g.n:(i+1)*g.n], g.a[i*g.lda:], g.sa, g.b, g.k)
	}
}

// do dispatches the job's rows on pool and returns g to gemmJobs.
func (g *gemmJob) do(pool *Pool, rows int, dst, a []float32, lda, sa int, b []float32, k, n int) {
	if k == 0 || n == 0 {
		clear(dst)
	} else {
		g.dst, g.a, g.b, g.lda, g.sa, g.k, g.n = dst, a, b, lda, sa, k, n
		pool.ParallelWeighted(rows, nil, g.rows)
		// Drop the operands so an idle job pins no caller memory.
		g.dst, g.a, g.b = nil, nil, nil
	}
	gemmJobs.Put(g)
}

// gemmStripGo computes dst[j] = Σ_p a[p·sa]·b[p·ldb + j] for j < len(dst)
// and p < k under the kernel contract; the float32 conversion of each
// product keeps the compiler from fusing it into the add. It runs the
// column tail and NaN strips on amd64 and every column elsewhere.
func gemmStripGo(dst, a []float32, sa int, b []float32, ldb, k int) {
	clear(dst)
	for p := 0; p < k; p++ {
		av := a[p*sa]
		if av == 0 {
			continue
		}
		for j, bv := range b[p*ldb : p*ldb+len(dst)] {
			dst[j] += float32(av * bv)
		}
	}
}
