package tensor

import (
	"math/rand"
	"testing"
)

// gemmShapes are the dense layer shapes of the train-arxiv SAGE model
// ([64,32,32,10], fanouts 15/10/5, batch 128): rows is the layer's
// input-row count, k its concatenated input width (2·in), n its output
// width. Layer 1's input is a ReLU output, so about half its entries are
// zero; the upstream gradient dZ of both hidden layers passes through
// ReLUBackward and is about half zero too.
var gemmShapes = []struct {
	name       string
	rows, k, n int
	reluInput  bool
}{
	{"l0", 1536, 128, 32, false},
	{"l1", 384, 64, 32, true},
}

// benchInput returns a rows×cols normal matrix, ReLU-ed when relu is set.
func benchInput(rng *rand.Rand, rows, cols int, relu bool) *Matrix {
	m := randomMatrix(rng, rows, cols)
	if relu {
		ReLU(m, m)
	}
	return m
}

// BenchmarkMatMul times the forward product X·W (rows×k · k×n).
func BenchmarkMatMul(b *testing.B) {
	for _, s := range gemmShapes {
		b.Run(s.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x, w := benchInput(rng, s.rows, s.k, s.reluInput), randomMatrix(rng, s.k, s.n)
			dst, pool := New(s.rows, s.n), NewPool(1)
			b.ReportAllocs()
			for b.Loop() {
				MatMul(pool, dst, x, w)
			}
		})
	}
}

// BenchmarkMatMulBT times the input gradient dZ·Wᵀ (rows×n · (k×n)ᵀ).
func BenchmarkMatMulBT(b *testing.B) {
	for _, s := range gemmShapes {
		b.Run(s.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			dz, w := benchInput(rng, s.rows, s.n, true), randomMatrix(rng, s.k, s.n)
			dst, pool := New(s.rows, s.k), NewPool(1)
			b.ReportAllocs()
			for b.Loop() {
				MatMulBT(pool, dst, dz, w)
			}
		})
	}
}

// BenchmarkMatMulAT times the weight gradient Xᵀ·dZ ((rows×k)ᵀ · rows×n).
func BenchmarkMatMulAT(b *testing.B) {
	for _, s := range gemmShapes {
		b.Run(s.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			x, dz := benchInput(rng, s.rows, s.k, s.reluInput), benchInput(rng, s.rows, s.n, true)
			dst, pool := New(s.k, s.n), NewPool(1)
			b.ReportAllocs()
			for b.Loop() {
				MatMulAT(pool, dst, x, dz)
			}
		})
	}
}

func BenchmarkSoftmaxRows(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	m := randomMatrix(rng, 1024, 47)
	out := New(1024, 47)
	for i := 0; i < b.N; i++ {
		SoftmaxRows(out, m)
	}
}

func BenchmarkReLU(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	m := randomMatrix(rng, 1024, 128)
	out := New(1024, 128)
	for i := 0; i < b.N; i++ {
		ReLU(out, m)
	}
}
