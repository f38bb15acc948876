package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitlint"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/flow"
	"repro/internal/frames"
	"repro/internal/jpgd"
	"repro/internal/obs"
)

const (
	// serveRate is the offered load in requests per second. With the
	// jpgload mix below it keeps a 2-core host about a tenth busy, so the
	// latencies are service times with little queueing; 250 req/s (half the
	// host's capacity for this mix) gave a p90 too unsteady to bound.
	serveRate = 50.0
	// serveSLO is the latency limit a request must meet to count as served
	// in time (failed and shed requests miss it too).
	serveSLO = 500 * time.Millisecond
	// serveVerifyEvery: every this-many-th generate response is re-verified
	// with bitlint after the window.
	serveVerifyEvery = 5
	// identityTries bounds how many fresh requests the identity check sends
	// per route before it gives up on seeing a coalesced answer.
	identityTries = 5
	// serveBuildInstances is the design each build request implements
	// (base plus one variant, a full CAD run per request).
	serveBuildInstances = "u1/=counter:bits=4;u2/=lfsr:bits=4"
	serveBuildVariant   = "lfsr:bits=4"
)

type reqClass int

const (
	classHot reqClass = iota
	classGenerate
	classBuild
)

var classNames = [...]string{"hot", "generate", "build"}

// servePattern fixes the class of request i as servePattern[i%20]. The hot
// share, 90%, and the hot set of four bodies are cmd/jpgload's defaults
// (-hot 0.9, -hotset 4), the repository's own model of jpgd traffic. There
// every cold request is a build; here the cold 10% is split evenly between
// generate and build requests, an assumption that nothing measures. A fixed
// pattern keeps the shares exact for every seed. The latency gate weighs
// each class equally (latencyMetrics), so it does not rest on the shares.
var servePattern = func() (p [20]reqClass) {
	p[4], p[14] = classGenerate, classBuild // the rest are hot (classHot is 0)
	return p
}()

// request is one prepared request of the schedule.
type request struct {
	class reqClass
	route string
	body  []byte
	// A unique generate request is its variant's template plus a name; the
	// body is assembled when it is sent, so the schedule does not hold a
	// copy of the base bitstream and XDL per request.
	tmpl   *genTemplate
	name   string
	hot    int  // index into the hot set, for hot requests
	verify bool // a generate response bitlint re-verifies
}

func (r request) payload() []byte {
	if r.tmpl != nil {
		return r.tmpl.with(r.name)
	}
	return r.body
}

// genTemplate is a marshalled generate request split around its name.
type genTemplate struct{ head, tail []byte }

const namePlaceholder = "@NAME@"

func newGenTemplate(g jpgd.GenerateRequest) (*genTemplate, error) {
	g.Name = namePlaceholder
	body, err := json.Marshal(g)
	if err != nil {
		return nil, err
	}
	head, tail, ok := bytes.Cut(body, []byte(strconv.Quote(namePlaceholder)))
	if !ok {
		return nil, fmt.Errorf("marshalled generate request has no name")
	}
	return &genTemplate{head, tail}, nil
}

// with returns the request body under the given (plain ASCII) name, byte
// for byte what json.Marshal gives for the request with that name.
func (t *genTemplate) with(name string) []byte {
	b := make([]byte, 0, len(t.head)+len(name)+2+len(t.tail))
	b = append(b, t.head...)
	b = strconv.AppendQuote(b, name)
	return append(b, t.tail...)
}

// reply is what came back for one request.
type reply struct {
	status int
	xcache string
	body   []byte
	err    error
}

// answer is what the checks after the window need of one timed response.
// The body is not kept, so the benchmark's own memory does not grow with
// the number of requests the window holds.
type answer struct {
	status int
	xcache string
	err    error // a transport error, or a 200 body that is not a valid answer
	sum    [sha256.Size]byte
	note   string // first line of a failed response's body

	bytes      int               // generate: partial size
	downloaded bool              // generate: the response reports a download
	partial    []byte            // generate, when sampled for bitlint: the partial
	times      []jpgd.BuildTimes // build: base and variant stage times
}

// digest reduces a reply to its answer.
func digest(rq request, rp reply) answer {
	a := answer{status: rp.status, xcache: rp.xcache, err: rp.err, sum: sha256.Sum256(rp.body)}
	if rp.err != nil || rp.status != http.StatusOK {
		a.note = firstLine(rp.body)
		return a
	}
	switch rq.class {
	case classGenerate:
		var g jpgd.GenerateResponse
		if a.err = json.Unmarshal(rp.body, &g); a.err != nil {
			return a
		}
		a.bytes = g.Bytes
		a.downloaded = g.Download != nil && g.Download.Attempts >= 1
		if rq.verify {
			a.partial = g.Bitstream
		}
	case classBuild:
		var b jpgd.BuildResponse
		if a.err = json.Unmarshal(rp.body, &b); a.err != nil {
			return a
		}
		if b.Variant == nil || b.Variant.Bytes == 0 {
			a.err = errors.New("build response has no variant partial")
			return a
		}
		a.times = []jpgd.BuildTimes{b.BaseTimes, b.Variant.Times}
	}
	return a
}

type serveState struct {
	baseMem *frames.Memory
	srv     *jpgd.Server
	reg     *obs.Registry
	hs      *http.Server
	served  chan error
	url     string
	tport   *http.Transport
	client  *http.Client
	clock   *handlerClock // nil in untraced runs
	// hot is the hot set with the digests of the bodies the cold (first)
	// requests got.
	hot    []request
	hotSum [][sha256.Size]byte
	gens   []*genTemplate // one per Figure 4 variant
}

// handlerClock is the benchmark's wrapper around the jpgd handler: it times
// each traced request's trip through the server (admission, coalescing,
// flow, encoding, write) by the operation id the client put in a header.
type handlerClock struct {
	epoch      time.Time
	start, end []atomic.Int64
}

const opHeader = "X-Bench-Op"

func (h *handlerClock) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, err := strconv.Atoi(r.Header.Get(opHeader))
		if err != nil || op < 0 || op >= len(h.start) {
			next.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		next.ServeHTTP(w, r)
		h.end[op].Store(int64(time.Since(h.epoch)))
		h.start[op].Store(int64(t0.Sub(h.epoch)))
	})
}

func (h *handlerClock) interval(op int) (time.Time, time.Time, bool) {
	s, e := h.start[op].Load(), h.end[op].Load()
	return h.epoch.Add(time.Duration(s)), h.epoch.Add(time.Duration(e)), e > 0
}

// runServe is the serve-mixed workload: open-loop Poisson load on an
// in-process jpgd with default serving options.
func runServe(cfg config) (*outcome, error) {
	ctx := context.Background()
	part, err := device.ByName("XCV50")
	if err != nil {
		return nil, err
	}
	sched := poissonSchedule(cfg.seed, serveRate, cfg.window)
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	st, setupS, err := repeatSetup(func() (*serveState, error) {
		return serveSetup(ctx, part, tr, len(sched))
	}, func(s *serveState) { s.stop() })
	if err != nil {
		return nil, err
	}
	defer st.stop()

	// Every request is prepared before the window opens.
	reqs := make([]request, len(sched))
	nHot, nGen := 0, 0
	for i := range reqs {
		switch c := servePattern[i%len(servePattern)]; c {
		case classHot:
			reqs[i] = st.hot[nHot%len(st.hot)]
			nHot++
		case classGenerate:
			reqs[i] = request{class: c, route: "/v1/generate", tmpl: st.gens[nGen%len(st.gens)],
				name: fmt.Sprintf("g%d-%d", cfg.seed, i), verify: nGen%serveVerifyEvery == 0}
			nGen++
		case classBuild:
			reqs[i] = request{class: c, route: "/v1/build", body: buildBody(opSeed(cfg.seed, i))}
		}
	}

	out := newOutcome()
	ctrs := newCounters(st.reg, "jpgd.exec", "jpgd.artifact.hit", "jpgd.artifact.miss",
		"jpgd.coalesce.follower", "jpgd.shed")
	admitWait := st.reg.GetHistogram("jpgd.admit.wait_ns")
	before, waitBefore := ctrs.read(), admitWait.Sum()
	mem := startMem()

	// The generator sleeps until each intended send time and hands the
	// request to its own goroutine; the client's connection pool (nproc
	// connections) is where a backlog queues, and every request is timed
	// from its intended send time.
	times := make([]sendTimes, len(reqs))
	answers := make([]answer, len(reqs))
	traced := func(i int) bool { return tr != nil && (i/len(servePattern))%2 == 0 }
	start := time.Now()
	var wg sync.WaitGroup
	for i, at := range sched {
		intended := start.Add(at)
		time.Sleep(time.Until(intended))
		sent := time.Now()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			op := -1
			if traced(i) {
				op = i
			}
			rp := st.post(reqs[i].route, reqs[i].payload(), op)
			times[i] = sendTimes{intended: intended, sent: sent, done: time.Now()}
			answers[i] = digest(reqs[i], rp)
		}(i)
	}
	wg.Wait()
	after, waitAfter := ctrs.read(), admitWait.Sum()
	rss, err := mem.finish(len(reqs), out.layer)
	if err != nil {
		return nil, err
	}

	counts := map[string]float64{}
	ctrs.sum(counts, before, after)
	out.attempted = len(reqs)

	// Checks and accounting, all after the window.
	var tracedLat, untracedLat, late []float64
	byClass := make([][]float64, len(classNames))
	handler := make([][]float64, len(classNames))
	transport := make([][]float64, len(classNames))
	var routeMS []float64
	genBytes, genCount, sloMiss := 0, 0, 0
	for i, a := range answers {
		rq := reqs[i]
		d := times[i].latency()
		late = append(late, ms(times[i].late()))
		if a.err != nil || a.status != http.StatusOK {
			out.failed++
			sloMiss++
			out.fail("request %d (%s): status %d: %v %s", i, classNames[rq.class], a.status, a.err, a.note)
			continue
		}
		if d > serveSLO {
			sloMiss++
		}
		byClass[rq.class] = append(byClass[rq.class], ms(d))
		if traced(i) {
			tracedLat = append(tracedLat, ms(d))
		} else {
			untracedLat = append(untracedLat, ms(d))
		}
		switch {
		case rq.class == classHot && a.xcache != "hit":
			out.fail("request %d: hot request answered %q, want a cache hit", i, a.xcache)
		case rq.class != classHot && a.xcache == "hit":
			out.fail("request %d: unique %s request answered from the cache", i, classNames[rq.class])
		case rq.class == classHot && a.sum != st.hotSum[rq.hot]:
			out.fail("request %d: cached body differs from the cold body", i)
		}

		var stages []stage
		switch rq.class {
		case classGenerate:
			if rq.verify {
				rep, err := bitlint.VerifyPartial(st.baseMem, a.partial)
				if err == nil {
					err = rep.Err()
				}
				if err != nil {
					out.fail("request %d: %v", i, err)
				}
			}
			if !a.downloaded {
				out.fail("request %d: generate response reports no download", i)
			}
			// Whole passes over the ten variants only, so the mean is exact.
			if genCount < nGen/len(st.gens)*len(st.gens) {
				genBytes += a.bytes
			}
			genCount++
		case classBuild:
			routeMS = append(routeMS, float64(a.times[0].RouteUS+a.times[1].RouteUS)/1e3)
			for _, t := range a.times {
				us := func(v int64) time.Duration { return time.Duration(v) * time.Microsecond }
				stages = append(stages, stage{"techmap", "map", us(t.SynthUS)}, stage{"place", "place", us(t.PlaceUS)},
					stage{"route", "route", us(t.RouteUS)}, stage{"bitgen", "bitgen", us(t.BitgenUS)})
			}
		}

		if !traced(i) {
			continue
		}
		hs, he, ok := st.clock.interval(i)
		if !ok {
			out.fail("request %d: handler wrapper saw no request", i)
			continue
		}
		handler[rq.class] = append(handler[rq.class], ms(he.Sub(hs)))
		transport[rq.class] = append(transport[rq.class], ms(times[i].done.Sub(times[i].sent)-he.Sub(hs)))
		root := tr.add(i, -1, "bench", "request", times[i].intended, times[i].done)
		tr.add(i, root, "gen", "generator.late", times[i].intended, times[i].sent)
		h := tr.add(i, root, "transport", "http.Client.Do", times[i].sent, times[i].done)
		hd := tr.add(i, h, "jpgd", "jpgd.Server.Handler", hs, he)
		tr.addStages(i, hd, hs, stages...)
	}
	st.identityCheck(cfg, out)
	peak, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	n := float64(len(reqs))
	for c, name := range classNames {
		out.layer["serve."+name+"_p50_ms"] = median(byClass[c])
		out.layer["jpgd.handler_"+name+"_ms"] = median(handler[c])
		out.layer["jpgd.transport_"+name+"_ms"] = median(transport[c])
	}
	out.layer["serve.slo_miss_share"] = float64(sloMiss) / n
	out.layer["fail_share"] = float64(out.failed) / n
	out.layer["jpgd.admit_wait_ms"] = ms(time.Duration(waitAfter-waitBefore)) / n
	out.layer["jpgd.exec_per_request"] = counts["jpgd.exec"] / n
	out.layer["jpgd.artifact_hit_ratio"] = ratio(counts["jpgd.artifact.hit"], counts["jpgd.artifact.hit"]+counts["jpgd.artifact.miss"])
	out.layer["jpgd.coalesce_followers"] = counts["jpgd.coalesce.follower"]
	out.layer["jpgd.shed"] = counts["jpgd.shed"]
	out.layer["flow.route_ms"] = median(routeMS)
	if v, _, ok := tail(late, 0.99); ok {
		out.layer["gen.late_p99_ms"] = v
	}
	if err := traceSummary(cfg, tr, tracedLat, untracedLat, out.layer); err != nil {
		return nil, err
	}

	out.record["load"] = fmt.Sprintf("open loop, Poisson arrivals at %g req/s over %d connections, 18 hot : 1 generate : 1 build",
		serveRate, runtime.NumCPU())
	out.record["offered_rps"] = serveRate
	if !cfg.trace {
		var classes []opClass
		for c, name := range classNames {
			classes = append(classes, opClass{name, byClass[c]})
		}
		tailMS, err := latencyMetrics(classes, out.e2e, out.record)
		if err != nil {
			return nil, err
		}
		out.e2e["partial_bytes"] = ratio(float64(genBytes), float64(nGen/len(st.gens)*len(st.gens)))
		out.e2e["setup_s"] = setupS
		out.e2e["rss_mb"] = rss
		out.record["metrics"] = map[string]metricValue{
			"serve_hot_p50_ms":      {out.layer["serve.hot_p50_ms"], "ms"},
			"serve_generate_p50_ms": {out.layer["serve.generate_p50_ms"], "ms"},
			"serve_build_p50_ms":    {out.layer["serve.build_p50_ms"], "ms"},
			"serve_p99_ms":          {tailMS, "ms"},
			"serve_slo_miss_share":  {out.layer["serve.slo_miss_share"], "ratio"},
			"setup_s":               {setupS, "s"},
			"rss_mb":                {rss, "MB"},
			"peak_rss_mb":           {peak, "MB"},
			"fail_share":            {out.layer["fail_share"], "ratio"},
		}
	}
	return out, nil
}

// serveSetup builds the Figure 4 base and its ten variants (the inputs of
// generate requests), starts jpgd on loopback and warms the hot set.
func serveSetup(ctx context.Context, part *device.Part, tr *tracer, nreq int) (*serveState, error) {
	base, err := fig4Base(ctx, part, designSeed)
	if err != nil {
		return nil, err
	}
	proj, err := core.NewProject(base.Bitstream)
	if err != nil {
		return nil, err
	}
	st := &serveState{baseMem: proj.Base, reg: obs.NewRegistry()}
	b64 := base64.StdEncoding.EncodeToString(base.Bitstream)
	for _, v := range fig4Variants() {
		a, err := flow.BuildVariant(ctx, base, v.prefix, v.gen, flow.Options{Seed: designSeed})
		if err != nil {
			return nil, err
		}
		t, err := newGenTemplate(jpgd.GenerateRequest{Base: b64, XDL: a.XDL, UCF: a.UCF,
			Strict: true, Verify: true, Download: &jpgd.DownloadRequest{}})
		if err != nil {
			return nil, err
		}
		st.gens = append(st.gens, t)
	}

	st.srv = jpgd.New(jpgd.Config{Registry: st.reg})
	var h http.Handler = st.srv.Handler()
	if tr != nil {
		st.clock = &handlerClock{epoch: tr.epoch, start: make([]atomic.Int64, nreq), end: make([]atomic.Int64, nreq)}
		h = st.clock.wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.url = "http://" + ln.Addr().String()
	st.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	st.served = make(chan error, 1)
	go func() { st.served <- st.hs.Serve(ln) }()
	st.tport = &http.Transport{MaxConnsPerHost: runtime.NumCPU(), MaxIdleConnsPerHost: runtime.NumCPU()}
	st.client = &http.Client{Transport: st.tport}

	// The hot set: two builds and two generates, requested once now (cold)
	// so that every timed repeat is answered from the artifact cache.
	for k := 0; k < 2; k++ {
		st.hot = append(st.hot,
			request{class: classHot, route: "/v1/build", body: buildBody(int64(k + 1)), hot: 2 * k},
			request{class: classHot, route: "/v1/generate", body: st.gens[5*k].with("hot"), hot: 2*k + 1})
	}
	for _, rq := range st.hot {
		rp := st.post(rq.route, rq.body, -1)
		if rp.err != nil || rp.status != http.StatusOK || rp.xcache != "miss" {
			st.stop()
			return nil, fmt.Errorf("warming %s: status %d, X-Cache %q: %v %s", rq.route, rp.status, rp.xcache, rp.err, firstLine(rp.body))
		}
		st.hotSum = append(st.hotSum, sha256.Sum256(rp.body))
	}
	return st, nil
}

// stop drains the server, shuts it down and waits for it to exit.
func (s *serveState) stop() {
	if s.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.srv.BeginDrain()
	_ = s.srv.Drain(ctx) // a drain timeout still ends in Shutdown below
	_ = s.hs.Shutdown(ctx)
	if err := <-s.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "perfbench: jpgd:", err)
	}
	s.tport.CloseIdleConnections()
	s.hs = nil
}

// post sends one request over the benchmark's client; op >= 0 tags it for
// the handler wrapper.
func (s *serveState) post(route string, body []byte, op int) reply {
	return post(s.client, s.url+route, body, op)
}

func post(client *http.Client, url string, body []byte, op int) reply {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	if op >= 0 {
		req.Header.Set(opHeader, strconv.Itoa(op))
	}
	resp, err := client.Do(req)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return reply{status: resp.StatusCode, xcache: resp.Header.Get("X-Cache"), body: data, err: err}
}

// identityCheck sends, for each route, a fresh request several times at
// once and then once more: the executed (cold), coalesced and cached
// answers must be byte-identical, and each kind must turn up. The
// concurrent requests are released together so that they reach jpgd while
// the first one executes; should none of them join its flight, the check
// tries again with another fresh request, identityTries times in all.
func (s *serveState) identityCheck(cfg config, out *outcome) {
	nv := int64(len(s.gens))
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	tries := map[string]int{}
	for _, route := range []string{"/v1/generate", "/v1/build"} {
		coalesced := false
		for try := 0; try < identityTries && !coalesced; try++ {
			tries[route]++
			body := buildBody(-(cfg.seed*identityTries + int64(try)) - 1)
			if route == "/v1/generate" {
				body = s.gens[(cfg.seed%nv+nv)%nv].with(fmt.Sprintf("identity%d", try))
			}
			const n = 4
			rps := make([]reply, n+1)
			release := make(chan struct{})
			var wg sync.WaitGroup
			for k := 0; k < n; k++ {
				wg.Add(1)
				go func(k int) {
					defer wg.Done()
					<-release
					rps[k] = post(client, s.url+route, body, -1)
				}(k)
			}
			close(release)
			wg.Wait()
			rps[n] = post(client, s.url+route, body, -1)
			problems := len(out.problems)
			kinds := map[string]int{}
			for k, rp := range rps {
				switch {
				case rp.err != nil || rp.status != http.StatusOK:
					out.fail("identity %s: status %d: %v %s", route, rp.status, rp.err, firstLine(rp.body))
				case !bytes.Equal(rp.body, rps[0].body):
					out.fail("identity %s: %s answer differs from the %s answer", route, rp.xcache, rps[0].xcache)
				case k == n && rp.xcache != "hit":
					out.fail("identity %s: repeat answered %q, want a cache hit", route, rp.xcache)
				}
				kinds[rp.xcache]++
			}
			if kinds["miss"] != 1 {
				out.fail("identity %s: %d executed (cold) answers, want 1", route, kinds["miss"])
			}
			if len(out.problems) > problems {
				return
			}
			coalesced = kinds["coalesced"] > 0
		}
		if !coalesced {
			out.fail("identity %s: no coalesced answer in %d tries", route, identityTries)
		}
	}
	out.record["identity_tries"] = tries
}

// buildBody is a /v1/build request: a base design plus one variant with its
// partial bitstream, seeded so that distinct seeds mean distinct CAD runs.
func buildBody(seed int64) []byte {
	body, _ := json.Marshal(jpgd.BuildRequest{ // a struct of strings and ints always marshals
		Part: "XCV50", Instances: serveBuildInstances, Seed: seed,
		Variant: &jpgd.VariantRequest{Prefix: "u1/", Gen: serveBuildVariant, Seed: seed + 1},
	})
	return body
}

func firstLine(b []byte) string {
	line, _, _ := bytes.Cut(b, []byte("\n"))
	return string(line)
}
