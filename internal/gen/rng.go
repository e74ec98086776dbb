// Package gen provides the deterministic workload generators behind the
// paper's datasets (§5.1, Table 1): the Graph500 RMAT generator with the
// paper's parameter sets, the synthetic bipartite ratings generator used for
// collaborative filtering, a 2-D grid generator standing in for road
// networks, and an Erdős–Rényi generator for tests.
package gen

// RNG is a SplitMix64 pseudo-random generator. It is deterministic across
// runs and platforms, cheap to seed (any uint64 works, including 0), and
// each value costs a handful of arithmetic ops — important because the RMAT
// generator draws scale × edges values.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Uint32n returns a uniform value in [0, n). n must be > 0.
func (r *RNG) Uint32n(n uint32) uint32 {
	// Lemire's multiply-shift rejection-free variant is fine here: the tiny
	// modulo bias of the plain multiply-shift is irrelevant for workload
	// generation, and determinism is what matters.
	return uint32((r.Uint64() >> 32) * uint64(n) >> 32)
}

// Intn returns a uniform int in [0, n).
func (r *RNG) Intn(n int) int {
	return int(r.Uint64() % uint64(n))
}

// Perm returns a deterministic pseudo-random permutation of [0, n) via
// Fisher–Yates.
func (r *RNG) Perm(n uint32) []uint32 {
	p := make([]uint32, n)
	for i := uint32(0); i < n; i++ {
		p[i] = i
	}
	for i := n; i > 1; i-- {
		j := r.Uint32n(i)
		p[i-1], p[j] = p[j], p[i-1]
	}
	return p
}
