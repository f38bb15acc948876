package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/bitlint"
	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/flow"
	"repro/internal/obs"
	"repro/internal/xhwif"
)

// designSeed is the seed the fixed designs are implemented with: the Figure 4
// base, the E10 base and variant, and the generate requests' variants, as
// jpgbench builds them at its default seed. The run's --seed drives the
// operation sequence instead (variant seeds, edits, arrivals). The base's
// seed alone moved the variant loop's median latency by ~15% (39 vs 46 ms for
// seeds 1002 and 1005) with the same route and place counts, which would
// swamp the changes the benchmark exists to show.
const designSeed = 1

// fig4CountOps is how many leading operations the fig4-variants count
// metrics cover: two passes over the ten variants. A fixed prefix makes
// the counts a pure function of the seed, however many operations the
// window holds.
const fig4CountOps = 20

type variant struct {
	prefix string
	gen    designs.Generator
}

// fig4Variants flattens the Figure 4 scenario into its ten variants, in
// region order.
func fig4Variants() []variant {
	var out []variant
	for _, rs := range experiments.Fig4Scenario() {
		for _, g := range rs.Variants {
			out = append(out, variant{rs.Prefix, g})
		}
	}
	return out
}

// fig4Base builds the Figure 4 base design: the first variant of each
// region, floorplanned and implemented on part.
func fig4Base(ctx context.Context, part *device.Part, seed int64) (*flow.BaseBuild, error) {
	var insts []designs.Instance
	for _, rs := range experiments.Fig4Scenario() {
		insts = append(insts, designs.Instance{Prefix: rs.Prefix, Gen: rs.Variants[0]})
	}
	return flow.BuildBase(ctx, part, insts, flow.Options{Seed: seed})
}

type fig4State struct {
	base  *flow.BaseBuild
	proj  *core.Project
	board *xhwif.Board
}

// runFig4 is the fig4-variants workload: the paper's Phase 2 loop, one
// variant at a time, from netlist to board.
func runFig4(cfg config) (*outcome, error) {
	ctx := context.Background()
	part, err := device.ByName("XCV50")
	if err != nil {
		return nil, err
	}
	st, setupS, err := repeatSetup(func() (*fig4State, error) {
		base, err := fig4Base(ctx, part, designSeed)
		if err != nil {
			return nil, err
		}
		proj, err := core.NewProject(base.Bitstream)
		if err != nil {
			return nil, err
		}
		board := xhwif.NewBoard(part)
		if _, err := board.Download(base.Bitstream); err != nil {
			return nil, err
		}
		return &fig4State{base: base, proj: proj, board: board}, nil
	}, func(*fig4State) {})
	if err != nil {
		return nil, err
	}

	out := newOutcome()
	variants := fig4Variants()
	ctrs := newCounters(obs.Default, "route.searches", "route.heap_pushes", "route.iterations",
		"route.search_retries", "route.nets", "place.moves_proposed", "place.moves_accepted")
	counts := map[string]float64{}
	per := samples{}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var bytesByOp []int
	var framesCarried, framesChanged int

	mem := startMem()
	untraced, traced, err := closedLoop(cfg, tr, len(variants), fig4CountOps, func(i int, tr *tracer) (time.Duration, error) {
		v := variants[i%len(variants)]
		before := ctrs.read()

		t0 := time.Now()
		a, err := flow.BuildVariant(ctx, st.base, v.prefix, v.gen, flow.Options{Seed: opSeed(cfg.seed, i)})
		if err != nil {
			return 0, err
		}
		t1 := time.Now()
		m, err := st.proj.AddModule(fmt.Sprintf("%s%s@%d", v.prefix, v.gen.Name(), i), a.XDL, a.UCF)
		if err != nil {
			return 0, err
		}
		t2 := time.Now()
		res, err := st.proj.GeneratePartial(m, core.GenerateOptions{Strict: true})
		if err != nil {
			return 0, err
		}
		t3 := time.Now()
		rep, err := bitlint.VerifyPartial(st.proj.Base, res.Bitstream)
		if err != nil {
			return 0, err
		}
		t4 := time.Now()
		ds, err := st.board.Download(res.Bitstream)
		if err != nil {
			return 0, err
		}
		t5 := time.Now()

		after := ctrs.read()
		// Every operation adds a module; dropping the finished ones keeps
		// the project (and so its memory) from growing with the number of
		// operations the window happens to hold.
		st.proj.Modules = st.proj.Modules[:0]
		problems := len(out.problems)
		if err := rep.Err(); err != nil {
			out.fail("op %d: partial for %s%s: %v", i, v.prefix, v.gen.Name(), err)
		}
		if err := checkReadback(st.board, rep, res.FARs); err != nil {
			out.fail("op %d: %v", i, err)
		}
		if len(out.problems) > problems {
			out.failed++
		}

		if i < fig4CountOps {
			ctrs.sum(counts, before, after)
			framesCarried += len(res.FARs)
			framesChanged += res.FramesChanged
		}
		bytesByOp = append(bytesByOp, len(res.Bitstream))
		per.add("flow.map_ms", ms(a.Times.Synthesis))
		per.add("flow.place_ms", ms(a.Times.Place))
		per.add("flow.route_ms", ms(a.Times.Route))
		per.add("flow.bitgen_ms", ms(a.Times.Bitgen))
		per.add("core.add_module_ms", ms(t2.Sub(t1)))
		per.add("core.generate_ms", ms(t3.Sub(t2)))
		per.add("bitlint.verify_ms", ms(t4.Sub(t3)))
		per.add("xhwif.download_ms", ms(t5.Sub(t4)))
		per.add("xhwif.download_model_ms", ms(ds.ModelTime))

		root := tr.open(i, -1, "bench", "op", t0)
		fl := tr.add(i, root, "flow", "flow.BuildVariant", t0, t1)
		tr.addStages(i, fl, t0,
			stage{"techmap", "map", a.Times.Synthesis},
			stage{"place", "place", a.Times.Place},
			stage{"route", "route", a.Times.Route},
			stage{"bitgen", "bitgen", a.Times.Bitgen})
		tr.add(i, root, "core", "core.Project.AddModule", t1, t2)
		tr.add(i, root, "core", "core.Project.GeneratePartial", t2, t3)
		tr.add(i, root, "bitlint", "bitlint.VerifyPartial", t3, t4)
		tr.add(i, root, "xhwif", "xhwif.Board.Download", t4, t5)
		tr.close(root, t5)
		return t5.Sub(t0), nil
	})
	if err != nil {
		return nil, err
	}
	ops := len(untraced) + len(traced)
	out.attempted = ops
	rss, err := mem.finish(ops, out.layer)
	if err != nil {
		return nil, err
	}
	peak, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	// Partial sizes depend only on the region, so the mean over whole
	// passes over the ten variants is exact.
	whole := ops / len(variants) * len(variants)
	totalBytes := 0
	for _, b := range bytesByOp[:whole] {
		totalBytes += b
	}
	if !cfg.trace {
		tailMS, err := latencyMetrics([]opClass{{"variant", untraced}}, out.e2e, out.record)
		if err != nil {
			return nil, err
		}
		out.e2e["partial_bytes"] = ratio(float64(totalBytes), float64(whole))
		out.e2e["setup_s"] = setupS
		out.e2e["rss_mb"] = rss
		out.record["metrics"] = map[string]metricValue{
			"variant_p50_ms":        {out.e2e["op_p50_ms"], "ms"},
			"variant_p90_ms":        {out.e2e["op_p90_ms"], "ms"},
			"variant_p99_ms":        {tailMS, "ms"},
			"variant_partial_bytes": {out.e2e["partial_bytes"], "bytes"},
			"setup_s":               {setupS, "s"},
			"rss_mb":                {rss, "MB"},
			"peak_rss_mb":           {peak, "MB"},
			"fail_share":            {ratio(float64(out.failed), float64(ops)), "ratio"},
		}
	}

	per.medians(out.layer)
	n := float64(fig4CountOps)
	for _, c := range []string{"route.searches", "route.heap_pushes", "route.iterations", "route.search_retries"} {
		out.layer[c] = counts[c] / n
	}
	out.layer["route.nets_per_search"] = ratio(counts["route.nets"], counts["route.searches"])
	out.layer["place.moves_proposed"] = counts["place.moves_proposed"] / n
	out.layer["place.accept_ratio"] = ratio(counts["place.moves_accepted"], counts["place.moves_proposed"])
	out.layer["core.frames_changed_ratio"] = ratio(float64(framesChanged), float64(framesCarried))
	out.layer["fail_share"] = ratio(float64(out.failed), float64(ops))
	if err := traceSummary(cfg, tr, traced, untraced, out.layer); err != nil {
		return nil, err
	}

	out.record["load"] = "closed loop, one operation at a time"
	out.record["count_ops"] = fig4CountOps
	return out, nil
}

// checkReadback reads the frames a partial carried back from the board and
// compares them with the image the independent verifier decoded from the
// same partial.
func checkReadback(board *xhwif.Board, rep *bitlint.Report, fars []device.FAR) error {
	if rep.Frames == nil {
		return fmt.Errorf("readback: verifier decoded no frames")
	}
	got, err := board.ReadbackFrames(fars)
	if err != nil {
		return err
	}
	for k, f := range fars {
		want := rep.Frames.Frame(f)
		for w := range want {
			if got[k][w] != want[w] {
				return fmt.Errorf("readback: frame %v word %d is %#08x on the board, %#08x generated", f, w, got[k][w], want[w])
			}
		}
	}
	return nil
}
