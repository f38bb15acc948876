package main

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"math/rand"
	"time"

	"repro/internal/bitlint"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/device"
	"repro/internal/flow"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/xhwif"
)

const (
	// editCountOps is how many leading operations the edit-storm count
	// metrics cover (a fixed prefix, so they repeat exactly for a seed).
	editCountOps = 200
	// editBank is the size of the edited S-box bank (the E10 design).
	editBank = 8
	// Every editRevertEvery-th edit reverts to one of the last editHistory
	// revisions, so the stage cache and the partial memo see real hits. No
	// measured revert rate exists to take these from (E10's storm never
	// reverts): one in four is an assumption that keeps reverts a minority
	// yet several hundred per run. The latency gate weighs new and reverted
	// edits equally (latencyMetrics), so it does not rest on this share.
	// Every other edit gives one LUT a new INIT: an edit's cost grows with the
	// configuration columns it dirties, so one cell per edit keeps new edits
	// in one latency mode and the median off the boundary between modes.
	editRevertEvery = 4
	editHistory     = 8
	// editIdentityChecks bounds how many sampled edits are rebuilt from
	// scratch after the window to prove splice-vs-rebuild byte identity.
	editIdentityChecks = 4
	// editCacheBytes bounds the stage cache. The storm revisits only the
	// last editHistory revisions: 4 MiB already gives the same hit ratio
	// as 32 MiB. At 8 MiB the cache is full within the first seconds of
	// the window, so the resident set sits at its plateau for nearly all
	// of it and does not depend on how many edits the window holds.
	editCacheBytes = 8 << 20
)

// initEditGen builds a generator's module and then sets the given INITs, so
// the conventional flow can implement an edited netlist from scratch.
type initEditGen struct {
	designs.Generator
	inits map[string]uint16
}

func (g initEditGen) Build(d *netlist.Design, prefix string, clk *netlist.Net, ins []*netlist.Net) ([]*netlist.Net, error) {
	outs, err := g.Generator.Build(d, prefix, clk, ins)
	if err != nil {
		return nil, err
	}
	for name, init := range g.inits {
		if err := d.SetInit(name, init); err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// revision is one state of the edited netlist: every INIT that differs
// from the variant as built, by cell name.
type revision struct {
	nl    *netlist.Design
	inits map[string]uint16
}

type editState struct {
	ctx     context.Context // carries the stage cache
	base    *flow.BaseBuild
	variant *flow.Artifacts
	proj    *core.Project
	loop    *core.EditLoop
	board   *xhwif.Board
}

var (
	editGen  = designs.SBoxBank{N: editBank, Seed: 9}
	editOpts = flow.Options{Seed: designSeed + 1}
)

// runEditStorm is the edit-storm workload: INIT-only netlist edits taken
// through the incremental splice path, verified and downloaded.
func runEditStorm(cfg config) (*outcome, error) {
	part, err := device.ByName("XCV50")
	if err != nil {
		return nil, err
	}
	st, setupS, err := repeatSetup(func() (*editState, error) {
		c := cache.New(cache.Options{NoDisk: true, MaxBytes: editCacheBytes})
		ctx := cache.With(context.Background(), c)
		base, err := flow.BuildBase(ctx, part, []designs.Instance{
			{Prefix: "u1/", Gen: designs.Counter{Bits: 6}},
			{Prefix: "u2/", Gen: designs.SBoxBank{N: editBank, Seed: 3}},
		}, flow.Options{Seed: designSeed})
		if err != nil {
			return nil, err
		}
		variant, err := flow.BuildVariant(ctx, base, "u2/", editGen, editOpts)
		if err != nil {
			return nil, err
		}
		proj, err := core.NewProject(base.Bitstream)
		if err != nil {
			return nil, err
		}
		proj.Cache = c
		sess, err := flow.NewVariantEditSession(variant, base.Regions["u2/"], editOpts)
		if err != nil {
			return nil, err
		}
		board := xhwif.NewBoard(part)
		if _, err := board.Download(base.Bitstream); err != nil {
			return nil, err
		}
		return &editState{ctx: ctx, base: base, variant: variant, proj: proj, board: board,
			loop: core.NewEditLoop(proj, sess, "u2_storm", core.GenerateOptions{})}, nil
	}, func(*editState) {})
	if err != nil {
		return nil, err
	}

	out := newOutcome()
	ctrs := newCounters(obs.Default, "cache.hit", "cache.miss", "bitstream.bytes_emitted")
	counts := map[string]float64{}
	per := samples{}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	revs := []revision{{nl: st.variant.Netlist, inits: map[string]uint16{}}}
	type sample struct {
		op      int
		inits   map[string]uint16
		partial []byte
	}
	var identity []sample
	totalBytes, rebuilds, dirty := 0, 0, 0
	// reverts[i] tells whether operation i went back to an earlier revision.
	var reverts []bool

	mem := startMem()
	untraced, traced, err := closedLoop(cfg, tr, editRevertEvery, editCountOps, func(i int, tr *tracer) (time.Duration, error) {
		// The next revision is prepared outside the timed window.
		var next revision
		revert := i%editRevertEvery == editRevertEvery-1 && len(revs) > 1
		reverts = append(reverts, revert)
		if revert {
			next = revs[rng.Intn(len(revs)-1)]
		} else {
			cur := revs[len(revs)-1]
			next = revision{nl: cur.nl.Clone(), inits: maps.Clone(cur.inits)}
			name := fmt.Sprintf("u2/sbox%d", rng.Intn(editBank))
			c, ok := next.nl.Cell(name)
			if !ok {
				return 0, fmt.Errorf("variant has no cell %s", name)
			}
			init := c.Init
			for init == c.Init {
				init = uint16(rng.Intn(1 << 16))
			}
			if err := next.nl.SetInit(name, init); err != nil {
				return 0, err
			}
			next.inits[name] = init
		}
		revs = append(revs, next)
		if len(revs) > editHistory {
			revs = revs[1:]
		}
		// The session keeps the netlist it is handed, and revisions stay in
		// the history to be revisited, so it gets its own copy.
		nl := next.nl.Clone()
		before := ctrs.read()

		t0 := time.Now()
		res, err := st.loop.Edit(st.ctx, nl)
		if err != nil {
			return 0, err
		}
		t1 := time.Now()
		rep, err := bitlint.VerifyPartial(st.proj.Base, res.Partial.Bitstream)
		if err != nil {
			return 0, err
		}
		t2 := time.Now()
		if _, err := st.board.Download(res.Partial.Bitstream); err != nil {
			return 0, err
		}
		t3 := time.Now()

		after := ctrs.read()
		is := res.Incremental.Stats
		problems := len(out.problems)
		if err := rep.Err(); err != nil {
			out.fail("edit %d: %v", i, err)
		}
		if err := checkReadback(st.board, rep, res.Partial.FARs); err != nil {
			out.fail("edit %d: %v", i, err)
		}
		if is.Path == "rebuild" {
			rebuilds++
			out.fail("edit %d: an INIT-only edit was rebuilt, not spliced", i)
		}
		if len(out.problems) > problems {
			out.failed++
		}
		if len(identity) < editIdentityChecks && (i == 0 || splitmix64(uint64(cfg.seed)^uint64(i))%32 == 0) {
			identity = append(identity, sample{i, next.inits, res.Partial.Bitstream})
		}

		if i < editCountOps {
			ctrs.sum(counts, before, after)
			dirty += is.DirtyFrames
		}
		totalBytes += len(res.Partial.Bitstream)
		gen := t1.Sub(t0) - is.Diff - is.Apply
		per.add("flow.diff_ms", ms(is.Diff))
		per.add("flow.splice_ms", ms(is.Apply))
		per.add("core.generate_ms", ms(gen))
		per.add("bitlint.verify_ms", ms(t2.Sub(t1)))
		per.add("xhwif.download_ms", ms(t3.Sub(t2)))

		root := tr.open(i, -1, "bench", "op", t0)
		ed := tr.add(i, root, "core", "core.EditLoop.Edit", t0, t1)
		tr.addStages(i, ed, t0, stage{"flow", "flow.diff", is.Diff}, stage{"flow", "flow." + is.Path, is.Apply})
		tr.add(i, root, "bitlint", "bitlint.VerifyPartial", t1, t2)
		tr.add(i, root, "xhwif", "xhwif.Board.Download", t2, t3)
		tr.close(root, t3)
		return t3.Sub(t0), nil
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

	// Splice-vs-rebuild identity, outside the window: the sampled revisions
	// are implemented from scratch by the conventional flow and generated in
	// a fresh project; the partials must match byte for byte.
	for _, s := range identity {
		cold, err := flow.BuildVariant(context.Background(), st.base, "u2/", initEditGen{editGen, s.inits}, editOpts)
		if err != nil {
			return nil, fmt.Errorf("rebuild of edit %d: %w", s.op, err)
		}
		proj, err := core.NewProject(st.base.Bitstream)
		if err != nil {
			return nil, err
		}
		m, err := proj.AddModule(fmt.Sprintf("u2_cold@%d", s.op), cold.XDL, cold.UCF)
		if err != nil {
			return nil, err
		}
		res, err := proj.GeneratePartial(m, core.GenerateOptions{})
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(res.Bitstream, s.partial) {
			out.fail("edit %d: spliced partial differs from the from-scratch rebuild", s.op)
		}
	}

	if !cfg.trace {
		// An untraced run times every operation, in order.
		classes := []opClass{{name: "new"}, {name: "revert"}}
		for i, d := range untraced {
			if reverts[i] {
				classes[1].lat = append(classes[1].lat, d)
			} else {
				classes[0].lat = append(classes[0].lat, d)
			}
		}
		p50 := median(untraced)
		tailMS, err := latencyMetrics(classes, out.e2e, out.record)
		if err != nil {
			return nil, err
		}
		out.e2e["partial_bytes"] = ratio(float64(totalBytes), float64(ops))
		out.e2e["setup_s"] = setupS
		out.e2e["rss_mb"] = rss
		out.record["metrics"] = map[string]metricValue{
			"edit_p50_ms":        {p50, "ms"},
			"edit_p99_ms":        {tailMS, "ms"},
			"edit_partial_bytes": {out.e2e["partial_bytes"], "bytes"},
			"setup_s":            {setupS, "s"},
			"rss_mb":             {rss, "MB"},
			"peak_rss_mb":        {peak, "MB"},
			"fail_share":         {ratio(float64(out.failed), float64(ops)), "ratio"},
		}
	}

	per.medians(out.layer)
	n := float64(editCountOps)
	out.layer["flow.dirty_frames"] = float64(dirty) / n
	out.layer["flow.rebuilds"] = float64(rebuilds)
	out.layer["cache.hit_ratio"] = ratio(counts["cache.hit"], counts["cache.hit"]+counts["cache.miss"])
	out.layer["bitstream.bytes_per_op"] = counts["bitstream.bytes_emitted"] / n
	out.layer["fail_share"] = ratio(float64(out.failed), float64(ops))
	if err := traceSummary(cfg, tr, traced, untraced, out.layer); err != nil {
		return nil, err
	}

	out.record["load"] = "closed loop, one operation at a time"
	out.record["count_ops"] = editCountOps
	out.record["identity_checks"] = len(identity)
	return out, nil
}
