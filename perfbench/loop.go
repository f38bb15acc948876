package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/obs"
)

// closedLoop runs op back to back, one at a time, until the window has
// passed and at least minOps operations have run; op reports its own
// latency, which excludes the correctness checks it runs after the timed
// calls. In a traced run, operations alternate between traced and untraced
// in blocks of block operations, so both halves see the same mix of inputs;
// op receives a nil tracer for the untraced ones.
func closedLoop(cfg config, tr *tracer, block, minOps int,
	op func(i int, tr *tracer) (time.Duration, error)) (untraced, traced []float64, err error) {
	start := time.Now()
	for i := 0; i < minOps || time.Since(start) < cfg.window; i++ {
		t := tr
		if (i/block)%2 == 1 {
			t = nil
		}
		d, err := op(i, t)
		if err != nil {
			return untraced, traced, fmt.Errorf("operation %d: %w", i, err)
		}
		if t != nil {
			traced = append(traced, ms(d))
		} else {
			untraced = append(untraced, ms(d))
		}
	}
	return untraced, traced, nil
}

// counters reads a fixed set of the program's always-on obs counters, so
// an operation's work can be counted as the difference of two readings.
type counters struct {
	names []string
	cs    []*obs.Counter
}

func newCounters(reg *obs.Registry, names ...string) *counters {
	c := &counters{names: names}
	for _, n := range names {
		c.cs = append(c.cs, reg.GetCounter(n))
	}
	return c
}

func (c *counters) read() []int64 {
	v := make([]int64, len(c.cs))
	for i, ctr := range c.cs {
		v[i] = ctr.Value()
	}
	return v
}

// sum accumulates the differences of two readings into tot by name.
func (c *counters) sum(tot map[string]float64, before, after []int64) {
	for i, n := range c.names {
		tot[n] += float64(after[i] - before[i])
	}
}

// samples collects one value per operation for each named layer metric.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// medians reports the per-operation median of every collected metric.
func (s samples) medians(layer map[string]float64) {
	for n, xs := range s {
		layer[n] = median(xs)
	}
}

// opClass is the latencies in milliseconds of one class of operations of a
// workload: operations that take different paths through the program.
type opClass struct {
	name string
	lat  []float64
}

// latencyMetrics fills the end-to-end latency metrics from the latencies of
// each class of operations and returns the tail of all operations together
// (p99, or the highest percentile with minBeyond samples above it).
//
// op_p50_ms and op_p90_ms are geometric means over the classes of each
// class's median and p90 (one class: the plain median and p90). Every class
// counts the same whatever its share of the operations, so a slower path
// shows even when the mix puts it below or above the all-operation
// percentiles; and a class k times slower moves the metric by k^(1/classes).
// The tail goes into the record only: on a shared host its run-to-run
// spread is too wide for a regression bound.
func latencyMetrics(classes []opClass, e2e map[string]float64, record map[string]any) (float64, error) {
	var all []float64
	logP50, logP90 := 0.0, 0.0
	perClass := map[string]map[string]float64{}
	for _, c := range classes {
		p90, q90, ok := tail(c.lat, 0.9)
		if !ok {
			return 0, fmt.Errorf("%d %s operations are too few for a p90", len(c.lat), c.name)
		}
		p50 := median(c.lat)
		logP50 += math.Log(p50)
		logP90 += math.Log(p90)
		perClass[c.name] = map[string]float64{"ops": float64(len(c.lat)), "p50_ms": p50, "p90_ms": p90, "p90_quantile": q90}
		all = append(all, c.lat...)
	}
	tailV, tailQ, ok := tail(all, 0.99)
	if !ok {
		return 0, fmt.Errorf("%d operations are too few for a tail percentile", len(all))
	}
	n := float64(len(classes))
	e2e["op_p50_ms"] = math.Exp(logP50 / n)
	e2e["op_p90_ms"] = math.Exp(logP90 / n)
	record["ops"] = len(all)
	record["classes"] = perClass
	record["op_tail_ms"] = tailV
	record["tail_quantile"] = tailQ
	return tailV, nil
}
