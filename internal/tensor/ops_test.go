package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveMatMul is the reference implementation the kernels are checked
// against.
func naiveMatMul(a, b *Matrix) *Matrix {
	c := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += float64(a.At(i, k)) * float64(b.At(k, j))
			}
			c.Set(i, j, float32(s))
		}
	}
	return c
}

func transpose(m *Matrix) *Matrix {
	t := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

func TestMatMulAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pool := NewPool(3)
	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+rng.Intn(17), 1+rng.Intn(17), 1+rng.Intn(17)
		a, b := randomMatrix(rng, m, k), randomMatrix(rng, k, n)
		got := New(m, n)
		MatMul(pool, got, a, b)
		want := naiveMatMul(a, b)
		if got.MaxAbsDiff(want) > 1e-4 {
			t.Fatalf("trial %d: MatMul diff %g", trial, got.MaxAbsDiff(want))
		}
	}
}

func TestMatMulBTAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pool := NewPool(2)
	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+rng.Intn(13), 1+rng.Intn(13), 1+rng.Intn(13)
		a, b := randomMatrix(rng, m, k), randomMatrix(rng, n, k)
		got := New(m, n)
		MatMulBT(pool, got, a, b)
		want := naiveMatMul(a, transpose(b))
		if got.MaxAbsDiff(want) > 1e-4 {
			t.Fatalf("trial %d: MatMulBT diff %g", trial, got.MaxAbsDiff(want))
		}
	}
}

func TestMatMulATAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pool := NewPool(4)
	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+rng.Intn(13), 1+rng.Intn(13), 1+rng.Intn(13)
		a, b := randomMatrix(rng, k, m), randomMatrix(rng, k, n)
		got := New(m, n)
		MatMulAT(pool, got, a, b)
		want := naiveMatMul(transpose(a), b)
		if got.MaxAbsDiff(want) > 1e-4 {
			t.Fatalf("trial %d: MatMulAT diff %g", trial, got.MaxAbsDiff(want))
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	pool := NewPool(1)
	cases := []func(){
		func() { MatMul(pool, New(2, 2), New(2, 3), New(2, 2)) },
		func() { MatMulBT(pool, New(2, 2), New(2, 3), New(2, 2)) },
		func() { MatMulAT(pool, New(2, 2), New(3, 2), New(2, 2)) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected shape panic", i)
				}
			}()
			fn()
		}()
	}
}

// TestMatMulWorkerInvariance is the key determinism property: the result
// must not depend on the pool's worker count.
func TestMatMulWorkerInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a, b := randomMatrix(rng, 31, 17), randomMatrix(rng, 17, 23)
	ref := New(31, 23)
	MatMul(NewPool(1), ref, a, b)
	for _, w := range []int{2, 3, 5, 8, 64} {
		got := New(31, 23)
		MatMul(NewPool(w), got, a, b)
		if !got.Equal(ref) {
			t.Fatalf("workers=%d produced different result", w)
		}
	}
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ, checked through the three kernel variants.
func TestQuickMatMulTransposeIdentity(t *testing.T) {
	pool := NewPool(2)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(9), 1+rng.Intn(9), 1+rng.Intn(9)
		a, b := randomMatrix(rng, m, k), randomMatrix(rng, k, n)
		ab := New(m, n)
		MatMul(pool, ab, a, b)
		// Bᵀ·Aᵀ via MatMulBT(Bᵀ, A) ... compute directly with naive.
		btat := naiveMatMul(transpose(b), transpose(a))
		return transpose(ab).MaxAbsDiff(btat) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: ColSum(A) + ColSum(B) == ColSum(A+B).
func TestQuickColSumLinearity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(9), 1+rng.Intn(9)
		a, b := randomMatrix(rng, r, c), randomMatrix(rng, r, c)
		sa, sb := make([]float32, c), make([]float32, c)
		ColSum(sa, a)
		ColSum(sb, b)
		Add(a, b)
		sum := make([]float32, c)
		ColSum(sum, a)
		for j := range sum {
			if math.Abs(float64(sum[j]-(sa[j]+sb[j]))) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAddAndAddScaled(t *testing.T) {
	a := FromSlice(1, 3, []float32{1, 2, 3})
	b := FromSlice(1, 3, []float32{10, 20, 30})
	Add(a, b)
	want := []float32{11, 22, 33}
	for i, v := range want {
		if a.Data[i] != v {
			t.Fatalf("Add: got %v want %v", a.Data, want)
		}
	}
	AddScaled(a, -1, b)
	for i, v := range []float32{1, 2, 3} {
		if a.Data[i] != v {
			t.Fatalf("AddScaled: got %v", a.Data)
		}
	}
}

func TestScale(t *testing.T) {
	m := FromSlice(1, 2, []float32{2, -4})
	Scale(m, 0.5)
	if m.Data[0] != 1 || m.Data[1] != -2 {
		t.Fatalf("Scale: %v", m.Data)
	}
}

func TestAddRowVector(t *testing.T) {
	m := New(2, 2)
	AddRowVector(m, []float32{1, 2})
	if m.At(0, 0) != 1 || m.At(1, 1) != 2 {
		t.Fatalf("AddRowVector: %v", m.Data)
	}
}

func TestReLUForwardBackward(t *testing.T) {
	src := FromSlice(1, 4, []float32{-1, 0, 2, -3})
	dst := New(1, 4)
	ReLU(dst, src)
	want := []float32{0, 0, 2, 0}
	for i, v := range want {
		if dst.Data[i] != v {
			t.Fatalf("ReLU: %v", dst.Data)
		}
	}
	grad := FromSlice(1, 4, []float32{5, 6, 7, 8})
	out := New(1, 4)
	ReLUBackward(out, grad, dst)
	wantG := []float32{0, 0, 7, 0}
	for i, v := range wantG {
		if out.Data[i] != v {
			t.Fatalf("ReLUBackward: %v", out.Data)
		}
	}
}

func TestSoftmaxRows(t *testing.T) {
	src := FromSlice(2, 3, []float32{1, 1, 1, 1000, 0, -1000})
	dst := New(2, 3)
	SoftmaxRows(dst, src)
	for j := 0; j < 3; j++ {
		if math.Abs(float64(dst.At(0, j))-1.0/3) > 1e-5 {
			t.Fatalf("uniform softmax wrong: %v", dst.Row(0))
		}
	}
	// Extreme logits must not produce NaN/Inf and must concentrate mass.
	if dst.At(1, 0) < 0.999 {
		t.Fatalf("softmax should concentrate: %v", dst.Row(1))
	}
	for _, v := range dst.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatal("softmax produced NaN/Inf")
		}
	}
}

// Property: softmax rows always sum to 1 and are non-negative.
func TestQuickSoftmaxSimplex(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomMatrix(rng, 1+rng.Intn(5), 2+rng.Intn(8))
		out := New(m.Rows, m.Cols)
		SoftmaxRows(out, m)
		for i := 0; i < out.Rows; i++ {
			var sum float64
			for _, v := range out.Row(i) {
				if v < 0 {
					return false
				}
				sum += float64(v)
			}
			if math.Abs(sum-1) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestArgMaxRows(t *testing.T) {
	m := FromSlice(2, 3, []float32{1, 5, 2, 7, 0, 7})
	idx := make([]int, 2)
	ArgMaxRows(idx, m)
	if idx[0] != 1 {
		t.Fatalf("ArgMaxRows row0 = %d", idx[0])
	}
	if idx[1] != 0 { // ties resolve to the first maximum
		t.Fatalf("ArgMaxRows tie must pick first: %d", idx[1])
	}
}

func TestFrobeniusNorm(t *testing.T) {
	m := FromSlice(1, 2, []float32{3, 4})
	if n := FrobeniusNorm(m); math.Abs(n-5) > 1e-9 {
		t.Fatalf("FrobeniusNorm = %v", n)
	}
}

func TestColSumLengthPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ColSum(make([]float32, 3), New(2, 2))
}

func TestSoftmaxRowsDegenerateShapes(t *testing.T) {
	// 0 columns: nothing to normalise; must not panic (the old code
	// indexed row[0] unconditionally). 0 rows: trivially a no-op.
	for _, tc := range []struct{ rows, cols int }{{0, 3}, {3, 0}, {0, 0}} {
		src := New(tc.rows, tc.cols)
		dst := New(tc.rows, tc.cols)
		SoftmaxRows(dst, src) // must not panic
	}
}

func TestArgMaxRowsDegenerateShapes(t *testing.T) {
	// 0 rows: no output. 0 columns: no maximum exists; every slot gets
	// the -1 sentinel (the old code indexed row[0] and panicked).
	ArgMaxRows([]int{}, New(0, 4))
	dst := []int{7, 7, 7}
	ArgMaxRows(dst, New(3, 0))
	for i, v := range dst {
		if v != -1 {
			t.Fatalf("dst[%d] = %d, want -1 for a zero-column matrix", i, v)
		}
	}
}

// The reference loops below are the row kernels MatMul, MatMulBT and
// MatMulAT ran before the strip kernel, serial and otherwise verbatim
// except that each product is wrapped in float32(...). That conversion
// changes no instruction on amd64 below GOAMD64=v3, and keeps the
// oracle free of fused multiply-adds on targets where Go would fuse
// `x += a*b`.
func refMatMul(dst, a, b *Matrix) {
	k, n := a.Cols, b.Cols
	for i := 0; i < a.Rows; i++ {
		ar := a.Data[i*k : (i+1)*k]
		dr := dst.Data[i*n : (i+1)*n]
		for j := range dr {
			dr[j] = 0
		}
		for p, av := range ar {
			if av == 0 {
				continue
			}
			br := b.Data[p*n : (p+1)*n]
			for j, bv := range br {
				dr[j] += float32(av * bv)
			}
		}
	}
}

func refMatMulBT(dst, a, b *Matrix) {
	k, n := a.Cols, b.Rows
	for i := 0; i < a.Rows; i++ {
		ar := a.Data[i*k : (i+1)*k]
		dr := dst.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			br := b.Data[j*k : (j+1)*k]
			var sum float32
			for p, av := range ar {
				sum += float32(av * br[p])
			}
			dr[j] = sum
		}
	}
}

func refMatMulAT(dst, a, b *Matrix) {
	m, n := a.Cols, b.Cols
	for i := 0; i < m; i++ {
		dr := dst.Data[i*n : (i+1)*n]
		for j := range dr {
			dr[j] = 0
		}
		for p := 0; p < a.Rows; p++ {
			av := a.Data[p*m+i]
			if av == 0 {
				continue
			}
			br := b.Data[p*n : (p+1)*n]
			for j, bv := range br {
				dr[j] += float32(av * bv)
			}
		}
	}
}

// contractMatrix fills a rows×cols matrix with the values the kernel
// contract must get right: normals, ReLU zeros (+0), -0 and subnormals
// of either sign.
func contractMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		switch rng.Intn(8) {
		case 0, 1:
		case 2:
			m.Data[i] = float32(math.Copysign(0, -1))
		case 3:
			m.Data[i] = math.Float32frombits(uint32(1+rng.Intn(1<<23-1)) | uint32(rng.Intn(2))<<31)
		default:
			m.Data[i] = float32(rng.NormFloat64())
		}
	}
	return m
}

func sameBits(got, want *Matrix) int {
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			return i
		}
	}
	return -1
}

// TestMatMulBitExact checks every kernel bit for bit against its
// reference loop on ragged shapes (strips plus a column tail), empty
// dimensions, the train-arxiv layer shapes, and pools of 1 to 4 workers.
func TestMatMulBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	type shape struct{ m, k, n int }
	shapes := []shape{{1536, 128, 32}, {384, 64, 32}, {0, 5, 17}, {4, 0, 17}, {4, 5, 0}}
	for len(shapes) < 150 {
		shapes = append(shapes, shape{1 + rng.Intn(70), 1 + rng.Intn(70), 1 + rng.Intn(70)})
	}
	for si, s := range shapes {
		pool := NewPool(1 + si%4)
		a, b := contractMatrix(rng, s.m, s.k), contractMatrix(rng, s.k, s.n)
		bt, at := transpose(b), transpose(a)
		for _, c := range []struct {
			name      string
			got, want func(dst *Matrix)
		}{
			{"MatMul", func(d *Matrix) { MatMul(pool, d, a, b) }, func(d *Matrix) { refMatMul(d, a, b) }},
			{"MatMulBT", func(d *Matrix) { MatMulBT(pool, d, a, bt) }, func(d *Matrix) { refMatMulBT(d, a, bt) }},
			{"MatMulAT", func(d *Matrix) { MatMulAT(pool, d, at, b) }, func(d *Matrix) { refMatMulAT(d, at, b) }},
		} {
			got, want := New(s.m, s.n), New(s.m, s.n)
			got.Fill(float32(math.NaN())) // every element must be written
			c.got(got)
			c.want(want)
			if i := sameBits(got, want); i >= 0 {
				t.Fatalf("%s %dx%dx%d workers=%d: element %d is %x, reference %x", c.name, s.m, s.k, s.n,
					pool.Workers(), i, math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]))
			}
		}
	}
}

// TestGemmStripGoBitExact runs the portable strip over whole rows, so on
// amd64 it is checked at widths the assembly strip normally takes.
func TestGemmStripGoBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 60; trial++ {
		m, k, n := 1+rng.Intn(20), 1+rng.Intn(70), 1+rng.Intn(70)
		a, b := contractMatrix(rng, m, k), contractMatrix(rng, k, n)
		got, want := New(m, n), New(m, n)
		for i := 0; i < m; i++ {
			gemmStripGo(got.Row(i), a.Row(i), 1, b.Data, n, k)
		}
		refMatMul(want, a, b)
		if i := sameBits(got, want); i >= 0 {
			t.Fatalf("%dx%dx%d: element %d is %x, reference %x", m, k, n, i,
				math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]))
		}
	}
}

// TestMatMulZeroSkip pins the one place the contract shows outside
// finite inputs: a ±0 a-term is skipped even against an Inf or NaN in b,
// while a NaN a-term is not. Columns 0-15 run in the strip kernel and
// 16 in the column tail.
func TestMatMulZeroSkip(t *testing.T) {
	const n = 17
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	b := New(2, n)
	for j := 0; j < n; j++ {
		b.Set(0, j, inf)
		b.Set(1, j, 2)
	}
	a := FromSlice(3, 2, []float32{0, 1, float32(math.Copysign(0, -1)), 1, nan, 1})
	dst := New(3, n)
	MatMul(NewPool(1), dst, a, b)
	for j := 0; j < n; j++ {
		if dst.At(0, j) != 2 || dst.At(1, j) != 2 || !math.IsNaN(float64(dst.At(2, j))) {
			t.Fatalf("column %d: got %v %v %v, want 2 2 NaN", j, dst.At(0, j), dst.At(1, j), dst.At(2, j))
		}
	}
}
