// Command perfbench is the repository benchmark. One invocation runs one
// workload through the real system for a fixed time, checks every output
// with the independent verifier (internal/bitlint) and board readback, and
// prints one JSON result line as its last line of standard output:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (see BENCHMARK.json for why each was chosen):
//
//   - fig4-variants: one designer, closed loop; each operation re-implements
//     one of the ten Figure 4 module variants with a fresh seed and takes it
//     to the board (CAD -> JPG -> verify -> download).
//   - edit-storm: one designer, closed loop; each operation is one INIT-only
//     netlist edit taken through the incremental splice path to the board.
//   - serve-mixed: an in-process jpgd on loopback under open-loop Poisson
//     load mixing cached, generate-only and full-build requests.
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics instead, and the spans the benchmark
// recorded around its calls into each layer are written to
// .bench_build/perfbench/. The metric names and units come from
// BENCHMARK.json. A line before the result records the host, the setup and
// the workload's metrics under the names the workload describes them by.
//
// The benchmark only calls the program's public functions and reads values
// the program already exposes (stage times, obs counters, response fields
// and headers); it adds no instrumentation inside the program.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
}

// outcome is what a workload run hands back. Per-layer metrics a workload
// does not produce are reported as 0: the workload does not call that layer.
type outcome struct {
	attempted, failed int
	// problems lists every failed correctness check.
	problems []string
	e2e      map[string]float64
	layer    map[string]float64
	// record holds the run's setup and its metrics under the workload's own
	// names; it is printed before the result.
	record map[string]any
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, record: map[string]any{}}
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(config) (*outcome, error){
	"fig4-variants": runFig4,
	"edit-storm":    runEditStorm,
	"serve-mixed":   runServe,
}

// spec is the part of BENCHMARK.json the program reads: the metric names
// and units it must report.
type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workload = flag.String("workload", "", "workload name (see BENCHMARK.json)")
		seed     = flag.Int64("seed", 1, "workload seed; the operation sequence is a pure function of it")
		seconds  = flag.Float64("seconds", 10, "measurement window in seconds")
		trace    = flag.Int("trace", 0, "1 = report per-layer metrics from a traced run")
	)
	flag.Parse()
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	fn, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("want --seconds > 0 and --trace 0 or 1")
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
	}
	out, err := fn(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", cfg.workload, err)
	}

	res := result{Correct: len(out.problems) == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: map[string]metricValue{}}
	if out.attempted < 1 || out.failed > 0 {
		res.Correct = false
	}
	want, got := sp.EndToEnd, out.e2e
	if cfg.trace {
		want, got = sp.PerLayer, out.layer
	}
	for _, m := range want {
		v, ok := got[m.Name]
		if !ok && !cfg.trace {
			return fmt.Errorf("%s: end-to-end metric %s not measured", cfg.workload, m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for name := range got {
		if _, ok := res.Metrics[name]; !ok {
			return fmt.Errorf("%s: metric %s is not listed in BENCHMARK.json", cfg.workload, name)
		}
	}

	out.record["workload"] = cfg.workload
	out.record["seed"] = cfg.seed
	out.record["seconds"] = cfg.window.Seconds()
	out.record["trace"] = cfg.trace
	out.record["host"] = hostInfo()
	if len(out.problems) > 0 {
		out.record["problems"] = out.problems
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	if err := printJSON(map[string]any{"record": out.record}); err != nil {
		return err
	}
	if err := printJSON(res); err != nil {
		return err
	}
	if !res.Correct {
		os.Exit(1)
	}
	return nil
}

func printJSON(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(data))
	return err
}

// hostInfo names the host and build a result was measured on. run.sh
// passes the commit in PERFBENCH_COMMIT.
func hostInfo() map[string]any {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     commit,
	}
}

// peakRSSMB reads the process's peak resident set size. Each run is its own
// process running one workload, so the peak belongs to that workload.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// setups is how many times each run sets its workload up; setup_s is the
// median, so one slow set-up (first-touch device graphs, a GC) does not
// decide it.
const setups = 5

// repeatSetup runs setup setups times, closes all but the last state and
// returns it with the median set-up time in seconds.
func repeatSetup[S any](setup func() (S, error), discard func(S)) (S, float64, error) {
	var st S
	var secs []float64
	for i := 0; i < setups; i++ {
		if i > 0 {
			discard(st)
		}
		t0 := time.Now()
		var err error
		if st, err = setup(); err != nil {
			return st, 0, fmt.Errorf("setup: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	fmt.Fprintf(os.Stderr, "perfbench: set-up times (s): %.3f\n", secs)
	return st, median(secs), nil
}

// rssEvery is how often the resident set size is sampled during the window.
const rssEvery = 25 * time.Millisecond

// memWindow measures the Go runtime's allocation and GC activity and the
// process's resident set size over the measurement window.
type memWindow struct {
	before     runtime.MemStats
	stop, done chan struct{}
	rss        []float64
	err        error
}

func startMem() *memWindow {
	w := &memWindow{stop: make(chan struct{}), done: make(chan struct{})}
	runtime.ReadMemStats(&w.before)
	go w.sampleRSS()
	return w
}

// sampleRSS reads the resident set size from /proc/self/statm every
// rssEvery until the window closes. It reuses one buffer, so the samples
// add no allocations to the window's.
func (w *memWindow) sampleRSS() {
	defer close(w.done)
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		w.err = fmt.Errorf("RSS: %w", err)
		return
	}
	defer f.Close()
	buf := make([]byte, 128)
	tick := time.NewTicker(rssEvery)
	defer tick.Stop()
	for {
		n, err := f.ReadAt(buf, 0)
		if err != nil && err != io.EOF {
			w.err = fmt.Errorf("RSS: %w", err)
			return
		}
		// statm is "size resident shared ..." in pages.
		fields := bytes.Fields(buf[:n])
		if len(fields) < 2 {
			w.err = fmt.Errorf("RSS: /proc/self/statm reads %q", buf[:n])
			return
		}
		pages, err := strconv.ParseUint(string(fields[1]), 10, 64)
		if err != nil {
			w.err = fmt.Errorf("RSS: %w", err)
			return
		}
		w.rss = append(w.rss, float64(pages)*float64(os.Getpagesize())/(1<<20))
		select {
		case <-w.stop:
			return
		case <-tick.C:
		}
	}
}

// finish reports bytes allocated per operation and GC cycles in the window
// and returns the median resident set size over the window in MB. The
// median, unlike the peak, does not hang on one late garbage collection on
// a busy host, yet moves with what the program keeps and allocates.
func (w *memWindow) finish(ops int, layer map[string]float64) (float64, error) {
	close(w.stop)
	<-w.done
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	layer["runtime.alloc_bytes_per_op"] = ratio(float64(after.TotalAlloc-w.before.TotalAlloc), float64(ops))
	layer["runtime.gc_cycles"] = float64(after.NumGC - w.before.NumGC)
	if w.err != nil {
		return 0, w.err
	}
	return median(w.rss), nil
}

// traceSummary adds the traced run's self time per layer (mean per traced
// operation), the tracing overhead and the span dump.
func traceSummary(cfg config, tr *tracer, traced, untraced []float64, layer map[string]float64) error {
	if tr == nil {
		return nil
	}
	ops := map[int]bool{}
	for _, s := range tr.spans {
		ops[s.Op] = true
	}
	for l, d := range selfTimes(tr.spans) {
		layer["self."+l+"_ms"] = ratio(ms(d), float64(len(ops)))
	}
	layer["trace.overhead_ms"] = median(traced) - median(untraced)
	return tr.write(fmt.Sprintf(".bench_build/perfbench/trace-%s-seed%d.json", cfg.workload, cfg.seed))
}
