package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// hist is a log-bucketed latency histogram: buckets 0.5% wide from
// 100 ns to about a minute. Each bucket also keeps the sum of its
// samples, so a quantile reads as the mean of the samples in its
// bucket — measured digits, not a bucket edge. Recording allocates
// nothing, so the generator's bookkeeping stays out of the heap metric.
type hist struct {
	count [histBuckets]int64
	sum   [histBuckets]int64
	n     int64
}

const (
	histMin     = 100 // ns
	histGrowth  = 1.005
	histBuckets = 4096
)

var histLogGrowth = math.Log(histGrowth)

func (h *hist) record(d time.Duration) {
	ns := int64(d)
	i := 0
	if ns > histMin {
		i = int(math.Log(float64(ns)/histMin) / histLogGrowth)
		if i >= histBuckets {
			i = histBuckets - 1
		}
	}
	h.count[i]++
	h.sum[i] += ns
	h.n++
}

func (h *hist) merge(o *hist) {
	for i := range h.count {
		h.count[i] += o.count[i]
		h.sum[i] += o.sum[i]
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds (0 when empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	want := int64(math.Ceil(q * float64(h.n)))
	if want < 1 {
		want = 1
	}
	var cum int64
	for i, c := range h.count {
		cum += c
		if cum >= want {
			return float64(h.sum[i]) / float64(c)
		}
	}
	return 0
}

// generator derives every input of a run from the seed: the same seed
// gives the same objects, payloads and call sequence per caller.
type generator struct {
	r *rand.Rand
}

func newGenerator(seed int64, stream int) *generator {
	return &generator{r: rand.New(rand.NewSource(seed*1_000_003 + int64(stream)))}
}

func (g *generator) bytes(n int) []byte {
	if n == 0 {
		return nil
	}
	b := make([]byte, n)
	g.r.Read(b)
	return b
}

func (g *generator) intn(n int) int { return g.r.Intn(n) }

func (g *generator) float() float64 { return g.r.Float64() }

// name returns a printable name of 8 to 24 letters.
func (g *generator) name() string {
	b := make([]byte, 8+g.r.Intn(17))
	for i := range b {
		b[i] = 'a' + byte(g.r.Intn(26))
	}
	return string(b)
}

// median of a sample (0 when empty); sorts a copy.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the q-quantile of xs, interpolating linearly between the
// two nearest order statistics (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	pos := q * float64(len(c)-1)
	i := int(pos)
	if i+1 >= len(c) {
		return c[len(c)-1]
	}
	return c[i] + (pos-float64(i))*(c[i+1]-c[i])
}
