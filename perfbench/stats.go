package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail percentile:
// with fewer, the "percentile" is one or two outliers, not a distribution.
const minBeyond = 10

// rankIndex is the 0-based nearest-rank index of quantile q in n samples.
func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	return min(max(i, 0), n-1)
}

// quantile returns the nearest-rank q-quantile of xs (which it sorts).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rankIndex(len(xs), q)]
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail returns the want-quantile of xs, lowered where needed so that at
// least minBeyond samples lie above it, together with the quantile actually
// reported. ok is false when xs has too few samples for any such percentile.
func tail(xs []float64, want float64) (v, q float64, ok bool) {
	n := len(xs)
	i := min(rankIndex(n, want), n-1-minBeyond)
	if i < 0 {
		return 0, 0, false
	}
	sort.Float64s(xs)
	return xs[i], float64(i+1) / float64(n), true
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// poissonSchedule returns the intended send offsets of an open-loop client
// with exponential inter-arrival times at rate per second, within window.
// It is a pure function of its arguments.
func poissonSchedule(seed int64, rate float64, window time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= window {
			return out
		}
		out = append(out, at)
	}
}

// sendTimes records one open-loop request: when the schedule wanted it
// sent, when the generator actually sent it, and when its response had been
// read in full.
type sendTimes struct {
	intended, sent, done time.Time
}

// latency is measured from the intended send time, so a stall that delays
// the generator or queues requests behind a slow one is charged to every
// request it delays, not hidden by a late start.
func (s sendTimes) latency() time.Duration { return s.done.Sub(s.intended) }

// late is how far behind schedule the generator sent the request.
func (s sendTimes) late() time.Duration { return s.sent.Sub(s.intended) }

// splitmix64 derives independent per-operation seeds from the run seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// opSeed is the seed of operation i of a run seeded with seed.
func opSeed(seed int64, i int) int64 {
	return int64(splitmix64(uint64(seed)*0x100000001b3^uint64(i)) >> 1)
}
