//go:build go1.24

package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"aegaeon"
	"aegaeon/internal/cluster"
	"aegaeon/internal/decision"
	"aegaeon/internal/gateway"
	"aegaeon/internal/latency"
	"aegaeon/internal/model"
	"aegaeon/internal/obs"
	"aegaeon/internal/sim"
	"aegaeon/internal/slo"
	"aegaeon/internal/slomon"
	"aegaeon/internal/workload"
)

// The gateway is wired as cmd/aegaeon-gateway wires it at its default flags
// (8 models, 2 prefill + 4 decode H800s, collector + SLO monitor + decision
// journal on), except that virtual time runs gwSpeedup times faster than
// the wall clock.
const (
	haveGateway = true
	gwSpeedup   = 100
	gwModels    = 8
	gwMaxTokens = 64
	gwRate      = 500 // req/s of the step the end-to-end metrics come from
)

// At gwSpeedup the paper's SLO (TTFT 10 s, TBT 100 ms) is a wall-clock
// deadline of 100 ms for the first token plus 1 ms for each later one.
var (
	gwTTFT = slo.Default().TTFT / gwSpeedup
	gwTBT  = slo.Default().TBT / gwSpeedup
)

// live is one gateway serving cleartext HTTP/2 on a loopback port.
type live struct {
	se    *sim.Engine
	drv   *sim.Driver
	cl    *cluster.Cluster
	gw    *gateway.Gateway
	srv   *http.Server
	url   string
	start time.Time // wall time that virtual zero maps to, taken just before Gateway.Start
	done  chan error
}

// startLive builds the cluster and gateway and starts serving; it returns
// once the listener accepts connections.
func startLive(seed int64) (*live, error) {
	prof, err := latency.ProfileByName("H800")
	if err != nil {
		return nil, err
	}
	col := obs.New(obs.Options{})
	mon := slomon.New(slomon.Config{Objective: 0.99, Source: col})
	dec := decision.New(decision.Options{})
	se := sim.NewEngine(seed)
	cl, err := cluster.New(se, cluster.Config{
		Prof: prof, SLO: slo.Default(), Obs: col, SLOMon: mon, Decisions: dec, StoreSeed: seed,
		Deployments: []cluster.DeploymentConfig{{Name: "live", TP: 1, NumPrefill: 2, NumDecode: 4,
			Models: model.MarketMix(gwModels)}},
	})
	if err != nil {
		return nil, err
	}
	drv := sim.NewDriver(se, gwSpeedup)
	gw := gateway.New(drv, cl, gateway.Options{Speedup: gwSpeedup, MaxQueuePerModel: 256, MaxInFlight: 1024,
		Burst: 16, Obs: col, SLOMon: mon, Decisions: dec})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var protocols http.Protocols
	protocols.SetUnencryptedHTTP2(true)
	l := &live{se: se, drv: drv, cl: cl, gw: gw, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	l.srv = &http.Server{
		Handler:     gw.Handler(),
		ReadTimeout: 30 * time.Second,
		Protocols:   &protocols,
		// Above the gateway's 1024 in-flight cap, so the client never queues
		// requests ahead of admission.
		HTTP2: &http.HTTP2Config{MaxConcurrentStreams: 4096},
	}
	l.start = time.Now()
	gw.Start()
	go func() { l.done <- l.srv.Serve(ln) }()
	return l, nil
}

// stop drains the gateway, then shuts the server down and waits for it.
func (l *live) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := l.gw.Shutdown(ctx)
	if herr := l.srv.Shutdown(ctx); err == nil {
		err = herr
	}
	if serr := <-l.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// step is one constant-rate phase of the open-loop load: a warm-up, then a
// measured window.
type step struct {
	rate      float64
	warm, dur time.Duration
	from, to  time.Duration // the measured window, from the generator's start
	reqs      []*liveReq    // requests scheduled in the window
	scrapes   []float64     // GET /metrics latencies in the window, ms

	begin   usage
	evBegin uint64
	vBegin  time.Duration
	use     interval      // process counters across the window
	events  uint64        // kernel events fired in the window
	virt    time.Duration // virtual time the kernel advanced in the window
}

// liveReq is one scheduled request and what the client saw of it.
type liveReq struct {
	id    int64
	at    time.Duration // scheduled send time, from the generator's start
	model string
	input int

	due, sent, headers, first, end time.Time
	status, tokens, met            int
	lags                           []float64 // per token: receive time minus the wall time of its virtual stamp, ms
	done                           bool
	broken                         string // transport error or stream defect
}

func (q *liveReq) ok() bool { return q.status == http.StatusOK && q.done && q.broken == "" }

// schedule draws Poisson arrivals for each step from the seed. Each request
// picks one of the models uniformly, draws its prompt length from ShareGPT,
// and asks for gwMaxTokens streamed tokens.
func schedule(seed int64, steps []*step) []*liveReq {
	rng := rand.New(rand.NewSource(seed))
	ds := workload.ShareGPT()
	var names []string
	for _, m := range model.MarketMix(gwModels) {
		names = append(names, m.Name)
	}
	var out []*liveReq
	var t time.Duration
	for _, s := range steps {
		s.from, s.to = t+s.warm, t+s.warm+s.dur
		for {
			t += time.Duration(rng.ExpFloat64() / s.rate * float64(time.Second))
			if t >= s.to {
				break
			}
			in, _ := ds.Sample(rng)
			q := &liveReq{id: int64(len(out) + 1), at: t, model: names[rng.Intn(len(names))], input: in}
			out = append(out, q)
			if t >= s.from {
				s.reqs = append(s.reqs, q)
			}
		}
		t = s.to
	}
	return out
}

// clients returns one cleartext HTTP/2 client per CPU, each held to one
// connection, so the load uses at most nproc connections.
func clients() []*http.Client {
	out := make([]*http.Client, runtime.NumCPU())
	for i := range out {
		var p http.Protocols
		p.SetUnencryptedHTTP2(true)
		out[i] = &http.Client{Transport: &http.Transport{Protocols: &p, MaxConnsPerHost: 1}}
	}
	return out
}

// maxOutstanding bounds the request goroutines; arrivals beyond it wait, and
// the wait shows as generator lateness.
const maxOutstanding = 8192

// drive sends the schedule open loop from this one process, scrapes
// /metrics once a second, and snapshots process and kernel counters at each
// step's window edges. It returns once every request has finished or timed
// out.
func (r *run) drive(l *live, reqs []*liveReq, steps []*step) error {
	cs := clients()
	defer func() {
		for _, c := range cs {
			c.CloseIdleConnections()
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), steps[len(steps)-1].to+60*time.Second)
	defer cancel()
	start := time.Now()

	stopScrape := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		r.scrape(ctx, l, cs[0], start, steps, stopScrape)
	}()

	type edge struct {
		at    time.Duration
		s     *step
		begin bool
	}
	var edges []edge
	for _, s := range steps {
		edges = append(edges, edge{s.from, s, true}, edge{s.to, s, false})
	}
	var snapErr error
	snap := func(e edge) {
		sleepUntil(start.Add(e.at))
		u := snapUsage()
		var ev uint64
		var v time.Duration
		if err := l.drv.Call(func() { ev, v = l.se.Processed(), l.se.Now() }); err != nil {
			snapErr = err
		}
		if e.begin {
			e.s.begin, e.s.evBegin, e.s.vBegin = u, ev, v
		} else {
			e.s.use, e.s.events, e.s.virt = e.s.begin.until(u), ev-e.s.evBegin, v-e.s.vBegin
		}
	}

	sem := make(chan struct{}, maxOutstanding)
	var wg sync.WaitGroup
	for i, q := range reqs {
		for len(edges) > 0 && edges[0].at <= q.at {
			snap(edges[0])
			edges = edges[1:]
		}
		q.due = start.Add(q.at)
		sleepUntil(q.due)
		sem <- struct{}{}
		wg.Add(1)
		go func(c *http.Client, q *liveReq) {
			defer wg.Done()
			defer func() { <-sem }()
			r.send(ctx, l, c, q)
		}(cs[i%len(cs)], q)
	}
	for _, e := range edges {
		snap(e)
	}
	close(stopScrape)
	wg.Wait()
	<-scraped
	return snapErr
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// scrape GETs /metrics once a second until stop, as a monitoring system
// would. Each scrape takes a synchronous call on the event loop.
func (r *run) scrape(ctx context.Context, l *live, c *http.Client, start time.Time, steps []*step, stop <-chan struct{}) {
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		t0 := time.Now()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, l.url+"/metrics", nil)
		if err != nil {
			r.problem("scrape: %v", err)
			return
		}
		resp, err := c.Do(req)
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("status %d", resp.StatusCode)
			}
		}
		t1 := time.Now()
		if err != nil {
			r.problem("scrape /metrics: %v", err)
			continue
		}
		r.spans.add("scrape", t0, t1, -1, 0)
		for _, s := range steps {
			if at := t0.Sub(start); at >= s.from && at < s.to {
				s.scrapes = append(s.scrapes, ms(t1.Sub(t0)))
			}
		}
	}
}

var (
	dataPrefix = []byte("data: ")
	doneMark   = []byte("[DONE]")
	errorMark  = []byte(`{"error"`)
)

// send posts one streaming completion and reads its SSE stream, checking
// that token indices 0..gwMaxTokens-1 arrive in order, then [DONE]. Each
// token is judged against its wall-clock SLO deadline.
func (r *run) send(ctx context.Context, l *live, c *http.Client, q *liveReq) {
	defer r.requestSpans(q)
	body := fmt.Appendf(nil, `{"model":%q,"max_tokens":%d,"input_tokens":%d,"stream":true}`, q.model, gwMaxTokens, q.input)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, l.url+"/v1/completions", bytes.NewReader(body))
	if err != nil {
		q.broken = err.Error()
		return
	}
	req.Header.Set("Content-Type", "application/json")
	q.sent = time.Now()
	resp, err := c.Do(req)
	q.headers = time.Now()
	if err != nil {
		q.broken = err.Error()
		return
	}
	defer resp.Body.Close()
	q.status = resp.StatusCode
	if q.status != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return
	}
	q.lags = make([]float64, 0, gwMaxTokens)
	br := bufio.NewReaderSize(resp.Body, 4096)
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			if !q.done {
				q.broken = fmt.Sprintf("stream ended after %d tokens: %v", q.tokens, err)
			}
			return
		}
		now := time.Now()
		payload, ok := bytes.CutPrefix(line, dataPrefix)
		if !ok {
			continue
		}
		payload = bytes.TrimSpace(payload)
		switch {
		case q.done:
			q.broken = "data after [DONE]"
			return
		case bytes.Equal(payload, doneMark):
			if q.tokens != gwMaxTokens {
				q.broken = fmt.Sprintf("[DONE] after %d of %d tokens", q.tokens, gwMaxTokens)
				return
			}
			q.done, q.end = true, now
		case bytes.HasPrefix(payload, errorMark):
			q.broken = "error chunk " + string(payload)
			return
		default:
			idx, ok1 := scanNumber(payload, `"token_index":`)
			vt, ok2 := scanNumber(payload, `"virtual_time_s":`)
			switch {
			case !ok1 || !ok2:
				q.broken = "malformed chunk " + string(payload)
				return
			case idx < 0:
				continue // the finish chunk
			case int(idx) != q.tokens:
				q.broken = fmt.Sprintf("token %v arrived in position %d", idx, q.tokens)
				return
			}
			if q.tokens == 0 {
				q.first = now
			}
			if !now.After(q.due.Add(gwTTFT + time.Duration(q.tokens)*gwTBT)) {
				q.met++
			}
			q.lags = append(q.lags, ms(now.Sub(l.start.Add(time.Duration(vt*float64(time.Second)/gwSpeedup)))))
			q.tokens++
		}
	}
}

// requestSpans records request ⊃ admit (send to response headers), queue
// (headers to the first token) and stream (first token to [DONE]).
func (r *run) requestSpans(q *liveReq) {
	if !r.traced() || q.sent.IsZero() {
		return
	}
	end := q.end
	if !q.done {
		end = time.Now()
	}
	id := r.spans.add("request", q.sent, end, -1, q.id)
	r.spans.add("admit", q.sent, q.headers, id, q.id)
	if !q.first.IsZero() {
		r.spans.add("queue", q.headers, q.first, id, q.id)
		r.spans.add("stream", q.first, end, id, q.id)
	}
}

// scanNumber reads the number after key in a JSON chunk without decoding
// the chunk, which keeps the client's share of cpu_ms_per_req small.
func scanNumber(b []byte, key string) (float64, bool) {
	i := bytes.Index(b, []byte(key))
	if i < 0 {
		return 0, false
	}
	b = b[i+len(key):]
	j := bytes.IndexAny(b, ",}")
	if j < 0 {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(b[:j]), 64)
	return v, err == nil
}

// stepStats is what the client measured over one step's window.
type stepStats struct {
	sent, ok, r429, r503, met int
	ttft, admit, queue, lags  []float64 // ms
	late                      []float64 // how far behind schedule each send went out, ms
}

func (s *step) stats() stepStats {
	var st stepStats
	for _, q := range s.reqs {
		st.sent++
		st.met += q.met
		st.late = append(st.late, ms(q.sent.Sub(q.due)))
		switch q.status {
		case http.StatusTooManyRequests:
			st.r429++
		case http.StatusServiceUnavailable:
			st.r503++
		}
		if !q.ok() {
			continue
		}
		st.ok++
		st.ttft = append(st.ttft, ms(q.first.Sub(q.due)))
		st.admit = append(st.admit, ms(q.headers.Sub(q.sent)))
		st.queue = append(st.queue, ms(q.first.Sub(q.headers)))
		st.lags = append(st.lags, q.lags...)
	}
	return st
}

func (st stepStats) errorRate() float64 { return float64(st.sent-st.ok) / float64(st.sent) }

func (r *run) report(s *step, st stepStats) {
	fmt.Fprintf(r.out, "step %4.0f req/s: %d sent, %d ok, %d x 429, %d x 503; ttft p50 %.2f p99 %.2f ms; token lag p50 %.3f p99 %.3f ms; tokens on time %.4f\n",
		s.rate, st.sent, st.ok, st.r429, st.r503, quantile(st.ttft, .5), quantile(st.ttft, .99), quantile(st.lags, .5), quantile(st.lags, .99),
		float64(st.met)/float64(st.sent*gwMaxTokens))
	fmt.Fprintf(r.out, "  admit p50 %.2f p99 %.2f ms; queue p50 %.2f p99 %.2f ms; sender late p99 %.2f max %.2f ms; /metrics p50 %.2f max %.2f ms; %.0f tokens/s\n",
		quantile(st.admit, .5), quantile(st.admit, .99), quantile(st.queue, .5), quantile(st.queue, .99),
		quantile(st.late, .99), quantile(st.late, 1), quantile(s.scrapes, .5), quantile(s.scrapes, 1),
		float64(len(st.lags))/s.dur.Seconds())
}

// runGateway serves open-loop HTTP/SSE load against an in-process gateway.
// It is the only workload that runs the paced sim.Driver, admission control
// and per-token SSE flushes. Untraced, it holds gwRate req/s for three
// quarters of the budget; traced, it steps through 250, 500 and 1000 req/s.
// Either way it then replays the 500 req/s window in batch, unpaced, on the
// gateway's pool: untraced, the whole window for cpu_ms_per_req; traced, its
// first quarter through the per-layer arms.
//
// Wall-clock latencies are printed but not reported as metrics: on a shared
// host, steal time moved the 500 req/s TTFT p99 from 35 ms to 600 ms between
// consecutive runs, and the same swing lands in process CPU time. The
// end-to-end metrics are the ones such a host leaves steady: allocations,
// memory, and the TTFT and attainment the scheduler delivered in virtual
// time.
func runGateway(r *run) error {
	var setups []float64
	var l *live
	for i := 0; i < setupReps; i++ {
		if l != nil {
			if err := l.stop(); err != nil {
				return err
			}
		}
		runtime.GC()
		t := time.Now()
		var err error
		if l, err = startLive(r.seed); err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	if !r.traced() {
		r.probe() // the set-ups' speed; the replay probes the rest
	}
	scaled := func(d time.Duration) time.Duration { return time.Duration(float64(d) * r.scale) }
	gated := &step{rate: gwRate, warm: scaled(2 * time.Second), dur: r.budget * 3 / 4}
	steps := []*step{gated}
	if r.traced() {
		gated.dur = r.budget / 2
		steps = []*step{
			{rate: 250, warm: scaled(time.Second), dur: r.budget / 4},
			gated,
			{rate: 1000, warm: scaled(time.Second), dur: r.budget / 4},
		}
	}
	t := time.Now()
	reqs := schedule(r.seed, steps)
	genDur := time.Since(t)
	err := r.drive(l, reqs, steps)
	if serr := l.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	for _, q := range reqs {
		if q.broken != "" {
			r.problem("request %d: %s", q.id, q.broken)
		}
	}
	maxRPS := 0.0
	for _, s := range steps {
		st := s.stats()
		r.report(s, st)
		if quantile(st.ttft, .99) <= ms(gwTTFT) && st.errorRate() <= 0.01 {
			maxRPS = s.rate
		}
	}
	st := gated.stats()
	r.attempted += st.sent
	r.failed += st.sent - st.ok

	// The replay serves the whole window; the traced run, which serves it
	// once per arm, takes its first quarter.
	replayDur := gated.dur
	if r.traced() {
		replayDur /= 4
	}
	var replay []aegaeon.Request
	for _, q := range gated.reqs {
		if q.at-gated.from >= replayDur {
			break
		}
		replay = append(replay, aegaeon.Request{ID: strconv.FormatInt(q.id, 10), Model: q.model,
			Arrival: (q.at - gated.from) * gwSpeedup, InputTokens: q.input, OutputTokens: gwMaxTokens})
	}
	gen := func(*aegaeon.System) []aegaeon.Request { return append([]aegaeon.Request(nil), replay...) }
	on := layers{tracing: true, slomon: true, decisions: true}
	m := mix{cfg: on.apply(aegaeon.Config{GPU: "H800", PrefillGPUs: 2, DecodeGPUs: 4, NumModels: gwModels, Seed: r.seed}),
		on: on, gen: gen}
	// The driver has stopped, so the cluster is safe to read. Everything
	// read from the live run is read before the replay, so the replay's
	// garbage collections do not also mark the live run's heap.
	sys := l.cl.Deployments()[0].System
	if !r.traced() {
		n := float64(st.sent)
		r.set("allocs_per_req", "count", float64(gated.use.mallocs)/n)
		r.set("alloc_kb_per_req", "KiB", float64(gated.use.bytes)/1024/n)
		r.set("slo_attainment", "fraction", l.cl.Attainment())
		r.set("ttft_p50_ms", "ms", ms(sys.Tracker().TTFTQuantile(.5)))
		r.set("ttft_p99_ms", "ms", ms(sys.Tracker().TTFTQuantile(.99)))
		reps, err := r.serveReps(m, r.budget/4, 3)
		if err != nil {
			return err
		}
		fmt.Fprintf(r.out, "setup median %.6fs\n", median(setups))
		r.printReps(reps)
		r.set("setup_s", "s", median(setups)*r.runSpeed())
		r.set("cpu_ms_per_req", "ms", cpuPerReq(reps))
		return nil
	}
	fmt.Fprintf(r.out, "highest step with ttft p99 <= %v and error rate <= 1%%: %.0f req/s\n", gwTTFT, maxRPS)

	prompt := 0
	for _, q := range reqs {
		prompt += q.input
	}
	ev := float64(gated.events)
	r.set("workload.generate_ms", "ms", ms(genDur))
	r.set("workload.requests", "count", float64(len(reqs)))
	r.set("workload.prompt_tokens", "count", float64(prompt))
	r.set("workload.output_tokens", "count", float64(len(reqs)*gwMaxTokens))
	r.set("aegaeon.new_ms", "ms", 1000*median(setups))
	r.set("sim.events", "count", ev)
	r.set("sim.events_per_s", "1/s", ev/gated.use.wall.Seconds())
	r.set("sim.speedup", "x", gated.virt.Seconds()/gated.use.wall.Seconds())
	r.set("runtime.allocs_per_event", "count", float64(gated.use.mallocs)/ev)
	r.set("runtime.alloc_bytes_per_event", "B", float64(gated.use.bytes)/ev)
	r.set("runtime.gc_cycles", "count", float64(gated.use.gcCycles))
	r.set("runtime.gc_pause_ms", "ms", ms(gated.use.gcPause))
	met, missed := sys.Tracker().Tokens()
	r.set("core.completed", "count", float64(l.cl.Completed()))
	r.set("core.generated_tokens", "count", float64(met+missed))
	r.set("core.switches", "count", float64(l.cl.Switches()))
	r.set("core.ttft_attainment", "fraction", sys.Tracker().TTFTAttainment())
	_, arms, err := r.runArms(m, r.budget/4)
	if err != nil {
		return err
	}
	r.setLayerCosts(arms)
	return nil
}
