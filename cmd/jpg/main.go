// Command jpg is the partial-bitstream generation tool: the CLI counterpart
// of the paper's GUI. It initialises a project from the base design's
// complete bitstream, parses a sub-module variant's XDL and UCF files,
// replays the module through the JBits layer, and writes a partial
// bitstream. Options mirror the paper's tool: a floorplan view of the target
// region, write-back onto the base bitstream (option 2), and download to a
// (simulated) board over XHWIF.
//
// Usage:
//
//	jpg -base base.bit -xdl variant.xdl -ucf variant.ucf -o partial.bit \
//	    [-writeback rewritten.bit] [-floorplan] [-strict] [-incremental] \
//	    [-verify] [-download] [-v] [-faults spec] [-retries n] [-download-timeout d]
//	jpg -serve :8080 [-log-level debug] [-cache] [-cache-dir DIR]
//
// -serve switches the binary into the jpgd HTTP service (see cmd/jpgd):
// the same generation engine behind POST /v1/generate, with /metrics,
// health probes, structured logs and a flight recorder.
//
// -incremental uses the flow's dirty-frame tracking to emit only the frames
// whose content actually differs from the base — the smallest partial that
// reconfigures the module, at the cost of being tied to this exact base.
//
// With -v the tool traces its stages (project init, XDL parse, partial
// generation, download) and prints a per-stage time summary plus the key
// metrics after the run.
//
// The -download path is hardened: -faults (or $JPG_FAULTS), -retries or
// -download-timeout puts the board behind a retrying reliability layer that
// always verifies after write (see faults.Link); -faults injects
// deterministic link faults to exercise it — e.g.
// -faults "nth=2,mode=error,seed=7" fails every second download attempt.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/bitfile"
	"repro/internal/bitstream"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/jpgd"
	"repro/internal/obs"
	jpglog "repro/internal/obs/log"
	"repro/internal/xhwif"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "jpg:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		basePath  = flag.String("base", "", "complete bitstream of the base design (required)")
		xdlPath   = flag.String("xdl", "", "variant XDL file (required)")
		ucfPath   = flag.String("ucf", "", "variant UCF file (required)")
		outPath   = flag.String("o", "partial.bit", "output partial bitstream")
		writeBack = flag.String("writeback", "", "also write the base bitstream with the module applied (the paper's option 2)")
		floorplan = flag.Bool("floorplan", false, "print the module's floorplan footprint")
		strict    = flag.Bool("strict", false, "reject modules escaping their declared AREA_GROUP columns")
		download  = flag.Bool("download", false, "download to a simulated board and report the reconfiguration time")
		compress  = flag.Bool("compress", false, "emit an MFWR-compressed partial bitstream")
		incr      = flag.Bool("incremental", false, "emit only the frames the module actually changes against the base (a minimal delta partial; not relocatable)")
		verify    = flag.Bool("verify", false, "independently re-decode the generated partial (internal/bitlint) and fail on any error finding")
		verbose   = flag.Bool("v", false, "trace the tool's stages and print a per-stage summary and metrics")
		useCache  = flag.Bool("cache", cache.EnvEnabled(), "memoize partial-bitstream generation (content-addressed; default $JPG_CACHE/$JPG_CACHE_DIR)")
		cacheDir  = flag.String("cache-dir", os.Getenv(cache.EnvDir), "persist the cache on disk under this directory (implies -cache)")
		faultSpec = flag.String("faults", os.Getenv(faults.Env), "inject deterministic download faults (e.g. \"nth=2,mode=error,seed=7\"; default $JPG_FAULTS)")
		retries   = flag.Int("retries", 0, "max download attempts through the reliability layer (0 = xhwif default; > 0 turns the retrying, verify-after-write layer on)")
		dlTimeout = flag.Duration("download-timeout", 0, "deadline for one download including retries (> 0 turns the retrying, verify-after-write layer on)")
		serve     = flag.String("serve", "", "run as the jpgd HTTP service on this address (e.g. :8080) instead of a one-shot generation")
		logLevel  = flag.String("log-level", "info", "service log level with -serve: debug, info, warn, error")
	)
	flag.Parse()
	if *serve != "" {
		return serveDaemon(*serve, *logLevel, *useCache, *cacheDir)
	}
	ctx := context.Background()
	var col *obs.Collector
	if *verbose {
		col = obs.New()
		ctx = col.Attach(ctx)
	}
	if *basePath == "" || *xdlPath == "" || *ucfPath == "" {
		flag.Usage()
		return fmt.Errorf("-base, -xdl and -ucf are required")
	}
	baseFile, err := os.ReadFile(*basePath)
	if err != nil {
		return err
	}
	baseBS, baseHdr, err := bitfile.Unwrap(baseFile)
	if err != nil {
		return err
	}
	if baseHdr.Part != "" {
		fmt.Printf("base .bit header: design %q, part %s, %s %s\n",
			baseHdr.Design, baseHdr.Part, baseHdr.Date, baseHdr.Time)
	}
	xdlText, err := os.ReadFile(*xdlPath)
	if err != nil {
		return err
	}
	ucfText, err := os.ReadFile(*ucfPath)
	if err != nil {
		return err
	}

	_, sp := obs.Start(ctx, "project.init")
	proj, err := core.NewProject(baseBS)
	sp.End()
	if err != nil {
		return err
	}
	proj.Cache = cache.Open(*useCache, *cacheDir)
	fmt.Printf("project: %s, base bitstream %d bytes\n", proj.Part, len(baseBS))

	_, sp = obs.Start(ctx, "xdl.parse")
	m, err := proj.AddModule(*xdlPath, string(xdlText), string(ucfText))
	sp.End()
	if err != nil {
		return err
	}
	fmt.Println("module:", m.Stats())
	if *floorplan {
		fmt.Print(m.FloorplanASCII(proj.Part))
	}

	_, sp = obs.Start(ctx, "generate.partial")
	res, err := proj.GeneratePartial(m, core.GenerateOptions{
		WriteBack: *writeBack != "",
		Strict:    *strict,
		Compress:  *compress,
		Delta:     *incr,
		Verify:    *verify,
	})
	sp.End()
	if err != nil {
		return err
	}
	if err := os.WriteFile(*outPath, wrap(*xdlPath, proj.Part.Name, res.Bitstream), 0o644); err != nil {
		return err
	}
	fmt.Printf("partial bitstream: %d bytes, %d frames (%d changed), columns %d..%d -> %s\n",
		len(res.Bitstream), len(res.FARs), res.FramesChanged, res.Region.C1+1, res.Region.C2+1, *outPath)
	fmt.Printf("size vs full: %.1f%%\n", 100*float64(len(res.Bitstream))/float64(len(baseBS)))
	if *verify {
		fmt.Println("verify: partial re-decoded independently, differential against the port VM clean")
	}

	if *writeBack != "" {
		full := bitstream.WriteFull(proj.Base)
		if err := os.WriteFile(*writeBack, wrap("writeback", proj.Part.Name, full), 0o644); err != nil {
			return err
		}
		fmt.Printf("write-back bitstream: %d bytes -> %s\n", len(full), *writeBack)
	}

	if *download {
		board := xhwif.NewBoard(proj.Part)
		hw, err := faults.Link{Faults: *faultSpec, Retries: *retries, Timeout: *dlTimeout}.Wrap(board)
		if err != nil {
			return err
		}
		// Wrap has accepted the spec, so parsing it again cannot fail.
		if spec, _ := faults.Parse(*faultSpec); spec.Enabled() {
			fmt.Printf("fault injection: %s\n", spec)
		}
		_, sp = obs.Start(ctx, "download")
		dsFull, err := hw.DownloadCtx(ctx, baseBS)
		if err != nil {
			sp.End()
			return err
		}
		ds, err := hw.DownloadCtx(ctx, res.Bitstream)
		sp.End()
		if err != nil {
			return err
		}
		fmt.Printf("download (SelectMAP @ %.0f MHz): full %v, partial %v (%.1fx faster)\n",
			xhwif.DefaultClockHz/1e6, dsFull.ModelTime, ds.ModelTime,
			float64(dsFull.ModelTime)/float64(ds.ModelTime))
		// These two are the process's only downloads, so the global
		// counters are this run's.
		if hw != xhwif.HWIF(board) {
			r := obs.GetCounter("xhwif.retries").Value()
			line := fmt.Sprintf("reliability: %d attempt(s) full, %d attempt(s) partial; %d retr%s, %d abort(s), %d verify failure(s)",
				dsFull.Attempts, ds.Attempts, r, plural(r, "y", "ies"),
				obs.GetCounter("xhwif.download_aborts").Value(), obs.GetCounter("xhwif.verify_failures").Value())
			if attempts := obs.GetCounter("faults.download_attempts").Value(); attempts > 0 {
				line += fmt.Sprintf("; faults injected %d/%d", obs.GetCounter("faults.injected").Value(), attempts)
			}
			fmt.Println(line)
		}
	}
	if col != nil {
		fmt.Println("-- stage summary --")
		fmt.Print(col.StageSummary())
		fmt.Println("-- metrics --")
		fmt.Print(obs.Default.Snapshot().Render())
	}
	return nil
}

// serveDaemon runs the tool as the jpgd service (see cmd/jpgd and
// internal/jpgd) — the same binary, switched into a long-lived server.
func serveDaemon(addr, logLevel string, useCache bool, cacheDir string) error {
	level, err := jpglog.ParseLevel(logLevel)
	if err != nil {
		return err
	}
	cfg := jpgd.Config{
		Logger: jpglog.New(os.Stderr, level),
		Serve:  jpgd.ServeOptionsFromEnv(),
		Cache:  cache.Open(useCache, cacheDir),
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Printf("jpg serving on %s\n", addr)
	return jpgd.New(cfg).ListenAndServe(ctx, addr)
}

func plural(n int64, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

// wrap encloses raw configuration data in a .bit container with a metadata
// header.
func wrap(design, part string, raw []byte) []byte {
	now := time.Now()
	return bitfile.Wrap(bitfile.Header{
		Design: design,
		Part:   part,
		Date:   now.Format("2006/01/02"),
		Time:   now.Format("15:04:05"),
	}, raw)
}
