package zipf

import (
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestZipfianBounds(t *testing.T) {
	for _, n := range []uint64{1, 2, 10, 1000} {
		z := NewZipfian(rand.New(rand.NewSource(1)), n, 0.9)
		for i := 0; i < 10000; i++ {
			if v := z.Next(); v >= n {
				t.Fatalf("n=%d: sample %d out of range", n, v)
			}
		}
	}
}

func TestZipfianBoundsProperty(t *testing.T) {
	f := func(seed int64, nRaw uint16, thetaRaw uint8) bool {
		n := uint64(nRaw)%1000 + 1
		theta := float64(thetaRaw%99) / 100
		z := NewZipfian(rand.New(rand.NewSource(seed)), n, theta)
		for i := 0; i < 200; i++ {
			if z.Next() >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZipfianSkew(t *testing.T) {
	// With theta=0.9 the most popular item (rank 0) must be sampled far
	// more often than a mid-range item.
	z := NewZipfian(rand.New(rand.NewSource(42)), 1000, 0.9)
	counts := make([]int, 1000)
	const samples = 200000
	for i := 0; i < samples; i++ {
		counts[z.Next()]++
	}
	if counts[0] < 10*counts[500] {
		t.Errorf("rank 0 sampled %d times vs rank 500 %d times; expected strong skew", counts[0], counts[500])
	}
	if counts[0] < counts[1] {
		t.Errorf("rank 0 (%d) less popular than rank 1 (%d)", counts[0], counts[1])
	}
}

func TestZipfianUniformWhenThetaZero(t *testing.T) {
	z := NewZipfian(rand.New(rand.NewSource(7)), 10, 0)
	counts := make([]int, 10)
	const samples = 100000
	for i := 0; i < samples; i++ {
		counts[z.Next()]++
	}
	for i, c := range counts {
		// Each bucket should get roughly 10%; allow a generous band.
		if c < samples/20 || c > samples/5 {
			t.Errorf("theta=0 bucket %d got %d of %d samples; expected near-uniform", i, c, samples)
		}
	}
}

func TestZipfianDeterministicForSeed(t *testing.T) {
	a := NewZipfian(rand.New(rand.NewSource(5)), 100, 0.9)
	b := NewZipfian(rand.New(rand.NewSource(5)), 100, 0.9)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestZipfianPanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for n=0")
		}
	}()
	NewZipfian(rand.New(rand.NewSource(1)), 0, 0.5)
}

func TestZipfianPanicsOnBadTheta(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for theta=1")
		}
	}()
	NewZipfian(rand.New(rand.NewSource(1)), 10, 1.0)
}

func TestScrambledBoundsAndSpread(t *testing.T) {
	s := NewScrambled(rand.New(rand.NewSource(3)), 1000, 0.9)
	counts := map[uint64]int{}
	for i := 0; i < 50000; i++ {
		v := s.Next()
		if v >= 1000 {
			t.Fatalf("sample %d out of range", v)
		}
		counts[v]++
	}
	// The hottest scrambled key should not be key 0 deterministically
	// clumped at the front: check hot keys are spread out.
	var hottest uint64
	for k, c := range counts {
		if c > counts[hottest] {
			hottest = k
		}
	}
	if hottest == 0 {
		t.Log("hottest key happens to be 0; acceptable but unusual")
	}
	if len(counts) < 100 {
		t.Errorf("scrambled distribution touched only %d distinct keys", len(counts))
	}
}

func TestScrambledStableMapping(t *testing.T) {
	// The same rank must always map to the same item across generators.
	if fnvHash64(42) != fnvHash64(42) {
		t.Error("fnvHash64 not deterministic")
	}
	if fnvHash64(1) == fnvHash64(2) {
		t.Error("suspicious collision between consecutive inputs")
	}
}

func TestTwoSidedBoundsAndPeak(t *testing.T) {
	ts := NewTwoSided(rand.New(rand.NewSource(11)), 1000, 0.9)
	const peak = 700
	counts := make([]int, 1000)
	for i := 0; i < 100000; i++ {
		v := ts.Next(peak)
		if v >= 1000 {
			t.Fatalf("sample %d out of range", v)
		}
		counts[v]++
	}
	// The peak itself must be the hottest region; compare with a point far
	// away (wrap distance 500).
	near := counts[peak] + counts[peak-1] + counts[peak+1]
	far := counts[200] + counts[199] + counts[201]
	if near < 5*far {
		t.Errorf("near-peak count %d vs far count %d; expected peak concentration", near, far)
	}
}

func TestTwoSidedSymmetry(t *testing.T) {
	ts := NewTwoSided(rand.New(rand.NewSource(13)), 1001, 0.9)
	const peak = 500
	left, right := 0, 0
	for i := 0; i < 100000; i++ {
		v := int(ts.Next(peak))
		switch {
		case v < peak:
			left++
		case v > peak:
			right++
		}
	}
	ratio := float64(left) / float64(right)
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("left/right ratio = %.2f; expected near-symmetric decay", ratio)
	}
}

func TestTwoSidedWrapsAroundKeySpace(t *testing.T) {
	ts := NewTwoSided(rand.New(rand.NewSource(17)), 100, 0.9)
	sawHigh := false
	for i := 0; i < 10000; i++ {
		if v := ts.Next(0); v > 90 {
			sawHigh = true
			break
		}
	}
	if !sawHigh {
		t.Error("peak at 0 never wrapped to the top of the key space")
	}
}

func TestMovingPeakSweep(t *testing.T) {
	m := MovingPeak{N: 1000, Period: 100}
	if got := m.At(0); got != 0 {
		t.Errorf("At(0) = %d, want 0", got)
	}
	if got := m.At(50); got != 500 {
		t.Errorf("At(50) = %d, want 500", got)
	}
	if got := m.At(150); got != 500 {
		t.Errorf("At(150) = %d, want 500 (wrap)", got)
	}
	if got := m.At(99.9); got < 990 {
		t.Errorf("At(99.9) = %d, want near end of key space", got)
	}
}

func TestMovingPeakDegenerate(t *testing.T) {
	if got := (MovingPeak{N: 0, Period: 10}).At(5); got != 0 {
		t.Errorf("N=0: got %d, want 0", got)
	}
	if got := (MovingPeak{N: 10, Period: 0}).At(5); got != 0 {
		t.Errorf("Period=0: got %d, want 0", got)
	}
}

func TestZetaLargeNMonotone(t *testing.T) {
	// zeta must grow with n even past the exact-summation cap.
	small := zeta(1<<20, 0.9)
	large := zeta(1<<24, 0.9)
	if large <= small {
		t.Errorf("zeta(2^24)=%f <= zeta(2^20)=%f", large, small)
	}
}

func BenchmarkZipfianNext(b *testing.B) {
	z := NewZipfian(rand.New(rand.NewSource(1)), 1<<20, 0.9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Next()
	}
}

func BenchmarkTwoSidedNext(b *testing.B) {
	ts := NewTwoSided(rand.New(rand.NewSource(1)), 1<<20, 0.9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts.Next(uint64(i))
	}
}

// TestScrambledGolden pins the first 1,000 scrambled draws for one seed.
// Every workload stream — and with it every twin and digest comparison —
// is drawn from this generator, so a change to its arithmetic must not
// move a single draw. The golden file holds the draws of the generator as
// it was when the test was written.
func TestScrambledGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/scrambled_seed7.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Fields(string(data))
	if len(want) != 1000 {
		t.Fatalf("golden file holds %d draws, want 1000", len(want))
	}
	s := NewScrambled(rand.New(rand.NewSource(7)), 1_000_000, 0.8)
	for i, w := range want {
		if got := strconv.FormatUint(s.Next(), 10); got != w {
			t.Fatalf("draw %d = %s, want %s", i, got, w)
		}
	}
}
