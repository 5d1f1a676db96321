// Package zipf implements the skewed access distributions used by the
// paper's workloads: the YCSB-style Zipfian generator (which, unlike
// math/rand's Zipf, supports skew exponents below 1 such as the paper's
// θ = 0.9), a scrambled variant that decorrelates rank from key order, and
// the two-sided global Zipfian with a peak that moves over time, used to
// model "active users around the world in 24 hours" (§5.2.2).
package zipf

import (
	"math"
	"math/rand"
)

// Zipfian draws integers in [0, n) with P(i) ∝ 1/(i+1)^theta. It follows
// the standard YCSB implementation (Gray et al., "Quickly Generating
// Billion-Record Synthetic Databases"). Not safe for concurrent use; give
// each goroutine its own generator.
type Zipfian struct {
	n     uint64
	theta float64
	alpha float64
	zetan float64
	eta   float64
	// rank1 is 1 + 0.5^theta, the bound below which u·zetan draws rank 1.
	rank1 float64
	rng   *rand.Rand
}

// NewZipfian returns a Zipfian generator over [0, n) with skew theta
// (0 ≤ theta < 1; the common YCSB default is 0.99, the paper uses 0.9).
// It panics if n is zero or theta is out of range.
func NewZipfian(rng *rand.Rand, n uint64, theta float64) *Zipfian {
	if n == 0 {
		panic("zipf: n must be positive")
	}
	if theta < 0 || theta >= 1 {
		panic("zipf: theta must be in [0, 1)")
	}
	z := &Zipfian{n: n, theta: theta, rng: rng}
	z.zetan = zeta(n, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2, theta)/z.zetan)
	z.rank1 = 1 + math.Pow(0.5, theta)
	return z
}

// Next draws the next sample in [0, n); 0 is the most popular rank.
func (z *Zipfian) Next() uint64 {
	u := z.rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.rank1 {
		return 1
	}
	v := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if v >= z.n {
		v = z.n - 1
	}
	return v
}

func zeta(n uint64, theta float64) float64 {
	// Exact summation is O(n); cap the term count and extend with the
	// integral approximation so that construction over hundreds of
	// millions of keys stays cheap while keeping the low ranks (which
	// dominate the distribution) exact.
	const exact = 1 << 20
	sum := 0.0
	m := n
	if m > exact {
		m = exact
	}
	for i := uint64(0); i < m; i++ {
		sum += 1 / math.Pow(float64(i+1), theta)
	}
	if n > m {
		// ∫ x^-theta dx from m to n.
		sum += (math.Pow(float64(n), 1-theta) - math.Pow(float64(m), 1-theta)) / (1 - theta)
	}
	return sum
}

// Scrambled wraps a Zipfian so that popularity is spread pseudo-randomly
// over the key space instead of being concentrated at low ids, matching
// YCSB's ScrambledZipfianGenerator. The mapping is a fixed FNV-style hash,
// so the same rank always lands on the same item.
type Scrambled struct {
	z *Zipfian
}

// NewScrambled returns a scrambled Zipfian over [0, n).
func NewScrambled(rng *rand.Rand, n uint64, theta float64) *Scrambled {
	return &Scrambled{z: NewZipfian(rng, n, theta)}
}

// Next draws the next sample in [0, n).
func (s *Scrambled) Next() uint64 { return fnvHash64(s.z.Next()) % s.z.n }

func fnvHash64(v uint64) uint64 {
	const (
		offset = 0xCBF29CE484222325
		prime  = 0x100000001B3
	)
	h := uint64(offset)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= prime
		v >>= 8
	}
	return h
}

// TwoSided draws integers in [0, n) from a Zipfian whose peak sits at a
// caller-controlled position and decays symmetrically on both sides,
// wrapping around the key space. The paper uses this as the "global,
// two-sided Zipfian distribution defined on all keys in the whole database"
// whose peak sweeps from the first to the last record repeatedly.
type TwoSided struct {
	mag *Zipfian
	rng *rand.Rand
	n   uint64
}

// NewTwoSided returns a two-sided Zipfian over [0, n) with skew theta.
func NewTwoSided(rng *rand.Rand, n uint64, theta float64) *TwoSided {
	return &TwoSided{mag: NewZipfian(rng, n, theta), rng: rng, n: n}
}

// Next draws a sample with the distribution peak at position peak
// (peak may be any value; it is reduced mod n).
func (t *TwoSided) Next(peak uint64) uint64 {
	m := t.mag.Next()
	p := peak % t.n
	if t.rng.Intn(2) == 0 {
		return (p + m) % t.n
	}
	return (p + t.n - m%t.n) % t.n
}

// MovingPeak computes the sweep position of the global hot spot at a given
// elapsed fraction of the sweep period: the peak moves linearly from item 0
// to item n-1 and restarts, as in §5.2.2.
type MovingPeak struct {
	N      uint64
	Period float64 // seconds for one full sweep
}

// At returns the peak position after elapsed seconds.
func (m MovingPeak) At(elapsed float64) uint64 {
	if m.Period <= 0 || m.N == 0 {
		return 0
	}
	frac := elapsed / m.Period
	frac -= math.Floor(frac)
	return uint64(frac * float64(m.N))
}
