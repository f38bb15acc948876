// Package experiments regenerates the paper's evaluation: each E* function
// materialises one claim from §2.1/§4.1/Figure 4 as a table (see DESIGN.md's
// experiment index). The functions are deterministic given their config and
// are exercised by cmd/jpgbench and the repository benchmarks.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/faults"
	"repro/internal/flow"
	"repro/internal/parallel"
	"repro/internal/xhwif"
)

// Table is one experiment's result.
type Table struct {
	ID    string // e.g. "E1"
	Title string
	// Claim restates what the paper asserts.
	Claim   string
	Columns []string
	Rows    [][]string
	// Notes carries derived findings (e.g. measured ratios) and the
	// pass/fail verdict against the claim's shape.
	Notes []string
}

// AddRow appends a row (stringifying the cells).
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.3g", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Note appends a formatted note.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	fmt.Fprintf(&b, "claim: %s\n\n", t.Claim)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	b.WriteByte('\n')
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Config tunes experiment scale so unit tests stay fast while jpgbench runs
// the full paper-scale configuration.
type Config struct {
	// Part selects the device for CAD-heavy experiments (default XCV50).
	Part string
	// Seed drives all randomised algorithms.
	Seed int64
	// Effort scales the placer (default 1.0).
	Effort float64
	// Quick shrinks sweeps for test runs.
	Quick bool
	// Workers bounds the pool the experiments farm their independent CAD
	// runs through: 0 selects parallel.DefaultWorkers() (all cores, or
	// $JPG_WORKERS), 1 forces strictly serial execution. Results are
	// byte-identical for any value — only wall-clock changes.
	Workers int
	// Starts runs every placement as this many independently seeded
	// multi-start anneals, keeping the best (see flow.Options.Starts).
	// Unlike Workers it changes which placement wins, so results depend on
	// it — but not on how many workers ran the starts. <= 0 means 1.
	Starts int
	// Verify runs the independent bitstream verifier (internal/bitlint)
	// over every full and partial bitstream the experiments emit, failing
	// the run on any error finding. Execution-only: results are
	// byte-identical with it on or off (see flow.Options.Verify).
	Verify bool
	// Ctx carries the run's observability context (an obs.Collector
	// attached by jpgbench -trace); nil means context.Background().
	// Tracing never changes results — only what gets recorded.
	Ctx context.Context
	// Cache optionally memoizes CAD stage results (see internal/cache):
	// the flow consults it via the run context, core projects directly.
	// Caching never changes results — byte-identical cold, warm or off —
	// only wall-clock, so experiments whose verdicts compare *measured
	// times* (E4/E8/E9) should be given a cold cache or none at all.
	Cache *cache.Cache
	// Download is the download stack every experiment board sits behind
	// (see faults.Link): injected faults, retries and a deadline put the
	// board behind the retrying, verifying reliability layer, so experiment
	// *results* stay identical — exactly the property CI's faulted run
	// asserts. The zero Link downloads straight to the board.
	Download faults.Link
}

// board builds the HWIF an experiment downloads to: a simulated Board
// behind the config's download stack.
func (c Config) board(p *device.Part) (xhwif.HWIF, error) {
	return c.Download.Wrap(xhwif.NewBoard(p))
}

// ctx resolves the run context, attaching the config's cache so the flow
// layer sees it.
func (c Config) ctx() context.Context {
	ctx := c.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	return cache.With(ctx, c.Cache)
}

// pool renders the config's worker bound as pool options for
// parallel.MapCtx/DoCtx dispatches inside experiments.
func (c Config) pool() []parallel.Option {
	return []parallel.Option{parallel.WithWorkers(c.Workers)}
}

// flowOpts renders the config as flow options for one CAD run with the given
// seed — the single point where experiment knobs (effort, multi-start width,
// pool width) reach the flow layer.
func (c Config) flowOpts(seed int64) flow.Options {
	return flow.Options{Seed: seed, Effort: c.Effort, Starts: c.Starts, Workers: c.Workers, Verify: c.Verify}
}

// genOpts stamps the config's verification knob onto partial-generation
// options — the single point where Config.Verify reaches the core layer.
func (c Config) genOpts(o core.GenerateOptions) core.GenerateOptions {
	o.Verify = c.Verify
	return o
}

// flowOptsEffort is flowOpts with an explicit effort override (used by the
// effort-sweep experiment E8).
func (c Config) flowOptsEffort(seed int64, effort float64) flow.Options {
	o := c.flowOpts(seed)
	o.Effort = effort
	return o
}

func (c Config) withDefaults() Config {
	if c.Part == "" {
		c.Part = "XCV50"
	}
	if c.Effort == 0 {
		c.Effort = 1.0
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}
