package main

import (
	"math"
	"math/rand"
	"sort"
)

// minBeyond is the number of samples a percentile needs beyond it before
// the benchmark reports it as supported.
const minBeyond = 10

// percentile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between the closest ranks; 0 for no samples. xs is not
// modified.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// supported reports whether n samples leave at least minBeyond of them
// above the q-quantile.
func supported(n int, q float64) bool {
	return float64(n)*(1-q) >= minBeyond
}

// geomean is the geometric mean of the positive values in xs; 0 when
// there are none.
func geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// zipf draws ranks in [0, n) with a Zipf-skewed distribution (exponent
// 1.1): rank 0 is the hottest. The stream is a pure function of the rng's
// seed.
type zipf struct{ z *rand.Zipf }

func newZipf(rng *rand.Rand, n int) zipf {
	return zipf{rand.NewZipf(rng, 1.1, 1, uint64(n-1))}
}

func (z zipf) next() int { return int(z.z.Uint64()) }

// quota deals items from blocks with a fixed make-up, each block shuffled
// by the rng: the seed chooses the order, never the mix, so runs with
// different seeds do the same work.
type quota struct {
	rng   *rand.Rand
	block []int
	next  int
}

func newQuota(rng *rand.Rand, block []int) *quota {
	return &quota{rng: rng, block: append([]int(nil), block...), next: len(block)}
}

func (q *quota) draw() int {
	if q.next == len(q.block) {
		q.rng.Shuffle(len(q.block), func(i, j int) { q.block[i], q.block[j] = q.block[j], q.block[i] })
		q.next = 0
	}
	q.next++
	return q.block[q.next-1]
}

// zipfBlock is a block of size ranks in [0, n) whose make-up follows Zipf
// weights (exponent 1.1), apportioned by largest remainder.
func zipfBlock(n, size int) []int {
	w := make([]float64, n)
	total := 0.0
	for r := range w {
		w[r] = math.Pow(float64(r+1), -1.1)
		total += w[r]
	}
	counts := make([]int, n)
	rem := make([]int, n)
	left := size
	for r := range w {
		exact := w[r] / total * float64(size)
		counts[r] = int(exact)
		left -= counts[r]
		rem[r] = r
		w[r] = exact - float64(counts[r])
	}
	sort.SliceStable(rem, func(i, j int) bool { return w[rem[i]] > w[rem[j]] })
	for _, r := range rem[:left] {
		counts[r]++
	}
	var out []int
	for r, c := range counts {
		for ; c > 0; c-- {
			out = append(out, r)
		}
	}
	return out
}
