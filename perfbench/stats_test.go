package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for n := minBeyond + 1; n <= 3000; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i) // reversed, so tail must sort
		}
		v, q, ok := tail(xs, 0.99)
		if !ok {
			t.Fatalf("n=%d: no tail percentile", n)
		}
		if beyond := n - 1 - int(v); beyond < minBeyond {
			t.Fatalf("n=%d: %d samples beyond the tail, want >= %d", n, beyond, minBeyond)
		}
		if q > 0.99+1/float64(n) {
			t.Fatalf("n=%d: reported quantile %v above the rank asked for", n, q)
		}
		// Once the sample supports p99, p99 itself is reported.
		if n >= 1100 && q != float64(rankIndex(n, 0.99)+1)/float64(n) {
			t.Fatalf("n=%d: quantile %v, want nearest-rank p99", n, q)
		}
	}
	for n := 0; n <= minBeyond; n++ {
		if _, _, ok := tail(make([]float64, n), 0.99); ok {
			t.Fatalf("n=%d: a tail percentile from too few samples", n)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.2, 1}, {0.5, 3}, {0.9, 5}, {1, 5}} {
		if got := quantile(append([]float64{}, xs...), c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestPoissonScheduleIsAPureFunctionOfTheSeed(t *testing.T) {
	const rate, window = 50.0, 20 * time.Second
	a := poissonSchedule(7, rate, window)
	if b := poissonSchedule(7, rate, window); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if c := poissonSchedule(8, rate, window); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	// Prefix-stable: a shorter window is a prefix of a longer one.
	short := poissonSchedule(7, rate, window/2)
	if !reflect.DeepEqual(short, a[:len(short)]) {
		t.Fatal("shorter window is not a prefix of the longer one")
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= window {
			t.Fatalf("arrival %d at %v out of order or outside the window", i, a[i])
		}
	}
	// 1000 expected arrivals; a Poisson count is within 5 sigma (~158).
	if want := rate * window.Seconds(); math.Abs(float64(len(a))-want) > 5*math.Sqrt(want) {
		t.Fatalf("%d arrivals, want about %v", len(a), want)
	}
}

func TestLatencyCountsFromIntendedSendTime(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(d time.Duration) time.Time { return t0.Add(d * time.Millisecond) }
	// One request every 10 ms; the first takes 50 ms and the generator
	// stalls behind it, so the next two go out late and finish quickly.
	reqs := []sendTimes{
		{intended: at(0), sent: at(0), done: at(50)},
		{intended: at(10), sent: at(50), done: at(52)},
		{intended: at(20), sent: at(52), done: at(54)},
	}
	wantLat := []time.Duration{50, 42, 34}
	wantLate := []time.Duration{0, 40, 32}
	for i, r := range reqs {
		if got := r.latency(); got != wantLat[i]*time.Millisecond {
			t.Errorf("request %d latency %v, want %v (from the intended send time)", i, got, wantLat[i]*time.Millisecond)
		}
		if got := r.late(); got != wantLate[i]*time.Millisecond {
			t.Errorf("request %d late %v, want %v", i, got, wantLate[i]*time.Millisecond)
		}
	}
}

func TestOpSeedsAreDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for seed := int64(0); seed < 10; seed++ {
		for i := 0; i < 1000; i++ {
			s := opSeed(seed, i)
			if seen[s] {
				t.Fatalf("seed %d op %d repeats a seed", seed, i)
			}
			seen[s] = true
		}
	}
}

func TestLatencyMetricsWeighClassesEqually(t *testing.T) {
	const (
		common = 900
		rare   = 50
	)
	run := func(rareMS float64) map[string]float64 {
		classes := []opClass{{name: "common"}, {name: "rare"}}
		for i := 0; i < common; i++ {
			classes[0].lat = append(classes[0].lat, 1)
		}
		for i := 0; i < rare; i++ {
			classes[1].lat = append(classes[1].lat, rareMS)
		}
		e2e := map[string]float64{}
		if _, err := latencyMetrics(classes, e2e, map[string]any{}); err != nil {
			t.Fatal(err)
		}
		return e2e
	}
	// The rare class lies far beyond the all-operation median and p90, yet
	// slowing it four-fold doubles both gated metrics (4^(1/2)).
	a, b := run(100), run(400)
	for _, m := range []string{"op_p50_ms", "op_p90_ms"} {
		if math.Abs(a[m]-10) > 1e-9 || math.Abs(b[m]/a[m]-2) > 1e-9 {
			t.Errorf("%s: %v then %v, want 10 then 20", m, a[m], b[m])
		}
	}

	// One class: the plain median and p90.
	lat := make([]float64, 100)
	for i := range lat {
		lat[i] = float64(100 - i)
	}
	e2e := map[string]float64{}
	if _, err := latencyMetrics([]opClass{{"op", lat}}, e2e, map[string]any{}); err != nil {
		t.Fatal(err)
	}
	if e2e["op_p50_ms"] != 50 || e2e["op_p90_ms"] != 90 {
		t.Errorf("one class: p50 %v, p90 %v; want 50 and 90", e2e["op_p50_ms"], e2e["op_p90_ms"])
	}
}
