package tensor

// stripWidth is the number of output columns gemmStrip16 computes.
const stripWidth = 16

// gemmStrip16 computes dst[j] = Σ_p a[p·sa]·b[p·ldb + j] for j < 16 and
// p < k, holding the 16 sums in four SSE registers across the p loop,
// and reports whether any sum is NaN. It multiplies zero a-terms too, so
// it meets the kernel contract (gemm.go) only when it reports no NaN.
// It is implemented in gemm_amd64.s with SSE2 only, the amd64 baseline,
// and reads a[0..(k-1)·sa] and b[0..(k-1)·ldb+15]; gemmRow checks those
// bounds.
//
//go:noescape
func gemmStrip16(dst, a *float32, sa int, b *float32, ldb, k int) (nan bool)

// gemmRow computes dst[j] = Σ_p a[p·sa]·b[p·len(dst) + j] over p < k,
// for k ≥ 1: full 16-column strips in assembly, NaN strips and the
// remaining columns in the portable strip.
func gemmRow(dst, a []float32, sa int, b []float32, k int) {
	n := len(dst)
	_ = a[(k-1)*sa]
	_ = b[k*n-1]
	j := 0
	for ; j+stripWidth <= n; j += stripWidth {
		if gemmStrip16(&dst[j], &a[0], sa, &b[j], n, k) {
			gemmStripGo(dst[j:j+stripWidth], a, sa, b[j:], n, k)
		}
	}
	if j < n {
		gemmStripGo(dst[j:], a, sa, b[j:], n, k)
	}
}
