package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// TestGemmStrip16NaNFlag checks the flag gemmRow relies on: the assembly
// strip reports a NaN sum exactly when one of its 16 lanes is NaN, and
// agrees with the portable strip to the bit when it reports none.
func TestGemmStrip16NaNFlag(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	const k, ldb = 9, 20
	a, b := contractMatrix(rng, 1, k), contractMatrix(rng, k, ldb)
	got, want := make([]float32, 16), make([]float32, 16)
	if gemmStrip16(&got[0], &a.Data[0], 1, &b.Data[0], ldb, k) {
		t.Fatal("finite inputs reported a NaN sum")
	}
	gemmStripGo(want, a.Data, 1, b.Data, ldb, k)
	for j := range want {
		if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
			t.Fatalf("lane %d: %x, portable strip %x", j, math.Float32bits(got[j]), math.Float32bits(want[j]))
		}
	}
	a.Data[0] = 1
	for lane := 0; lane < 16; lane++ {
		saved := b.Data[lane]
		b.Data[lane] = float32(math.NaN())
		if !gemmStrip16(&got[0], &a.Data[0], 1, &b.Data[0], ldb, k) {
			t.Fatalf("NaN in lane %d not reported", lane)
		}
		b.Data[lane] = saved
	}
}
