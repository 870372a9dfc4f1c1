//go:build !amd64

package tensor

// gemmRow computes dst[j] = Σ_p a[p·sa]·b[p·len(dst) + j] over p < k.
// Off amd64 every column runs in the portable strip.
func gemmRow(dst, a []float32, sa int, b []float32, k int) {
	gemmStripGo(dst, a, sa, b, len(dst), k)
}
