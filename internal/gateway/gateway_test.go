package gateway

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"aegaeon/internal/assemble"
	"aegaeon/internal/cluster"
	"aegaeon/internal/fault"
	"aegaeon/internal/latency"
	"aegaeon/internal/model"
	"aegaeon/internal/overload"
	"aegaeon/internal/sim"
	"aegaeon/internal/slo"
)

// testCluster shapes a test gateway's one-deployment cluster. Zero fields
// take the defaults: four MarketMix models on 2 prefill + 2 decode
// instances serving slo.Default() over a single metadata store, driver
// paced from the start.
type testCluster struct {
	models          []*model.Model
	prefill, decode int
	slo             slo.SLO
	// faultSeed, when nonzero, gives the cluster a fault runtime so seeded.
	faultSeed int64
	// accelerate runs the driver un-paced from virtual time zero, so token
	// times depend only on the seed, not on the wall clock.
	accelerate bool
	// ctl, when set, is the cluster's brownout controller, which turns
	// overload control on in the core and at the edge.
	ctl *overload.Controller
	// speedup, when nonzero, is the driver's pacing in place of
	// opts.Speedup.
	speedup float64
}

// newGateway starts a gateway over a cluster shaped by tc and carrying the
// subsystems spec names, built by assemble.Build on the cluster's seed-1
// engine. The gateway shares the built collector, monitor and journal with
// the cluster; it reads the fleet ledger and market from the cluster itself.
func newGateway(t testing.TB, spec assemble.Spec, tc testCluster, opts Options) (*Gateway, []string) {
	t.Helper()
	if tc.models == nil {
		tc.models = model.MarketMix(4)
	}
	if tc.prefill == 0 {
		tc.prefill = 2
	}
	if tc.decode == 0 {
		tc.decode = 2
	}
	if tc.slo == (slo.SLO{}) {
		tc.slo = slo.Default()
	}
	se := sim.NewEngine(1)
	if tc.faultSeed != 0 {
		spec.Faults = fault.New(se, tc.faultSeed)
	}
	spec.Models, spec.TP = tc.models, 1
	parts, err := assemble.Build(se, spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.Config{
		Prof: latency.H800(),
		SLO:  tc.slo,
		Deployments: []cluster.DeploymentConfig{{
			Name: "live", TP: 1, NumPrefill: tc.prefill, NumDecode: tc.decode, Models: tc.models,
		}},
	}
	parts.Cluster(&cfg)
	if tc.ctl != nil {
		cfg.Overload = tc.ctl
	}
	cl, err := cluster.New(se, cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts.Obs, opts.SLOMon, opts.Decisions = parts.Obs, parts.SLOMon, parts.Decisions
	speedup := opts.Speedup
	if tc.speedup != 0 {
		speedup = tc.speedup
	}
	gw := New(sim.NewDriver(se, speedup), cl, opts)
	if tc.accelerate {
		gw.drv.Accelerate()
	}
	gw.Start()
	names := make([]string, len(tc.models))
	for i, m := range tc.models {
		names[i] = m.Name
	}
	return gw, names
}

// newTestGateway starts a gateway over a plain cluster: no optional
// subsystems, default shape.
func newTestGateway(t testing.TB, opts Options) (*Gateway, []string) {
	t.Helper()
	return newGateway(t, assemble.Spec{}, testCluster{}, opts)
}

func postCompletion(h http.Handler, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/completions", strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// parseStream extracts the token indices of a recorded SSE body and whether
// the terminal [DONE] marker arrived.
func parseStream(t *testing.T, body *bytes.Buffer) (indices []int, done bool) {
	t.Helper()
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "data: [DONE]" {
			done = true
			continue
		}
		if !strings.HasPrefix(line, "data: {") {
			continue
		}
		var chunk completionChunk
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &chunk); err != nil {
			t.Fatalf("bad SSE chunk %q: %v", line, err)
		}
		if chunk.TokenIndex >= 0 {
			indices = append(indices, chunk.TokenIndex)
		}
	}
	return indices, done
}

// TestGatewayConcurrentStreamsAndDrain is the acceptance scenario: 32
// concurrent clients open SSE streams, the gateway is shut down while they
// are in flight, and every client still receives its full token sequence in
// order — graceful drain must not drop tokens.
func TestGatewayConcurrentStreamsAndDrain(t *testing.T) {
	// Speedup 1: requests take many wall-seconds, so all 32 are guaranteed
	// in flight when Shutdown fires; drain acceleration finishes them fast.
	gw, names := newTestGateway(t, Options{Speedup: 1})
	h := gw.Handler()

	const clients = 32
	const wantTokens = 6
	results := make([]*httptest.ResponseRecorder, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = postCompletion(h, fmt.Sprintf(
				`{"model":%q,"input_tokens":32,"max_tokens":%d,"stream":true}`,
				names[i%len(names)], wantTokens))
		}(i)
	}

	// Wait until every client has passed admission, then drain under load.
	deadline := time.Now().Add(10 * time.Second)
	for gw.Admitted() < clients {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d clients admitted", gw.Admitted(), clients)
		}
		time.Sleep(time.Millisecond)
	}
	if fl := gw.InFlight(); fl != clients {
		t.Fatalf("in flight = %d before drain, want %d", fl, clients)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := gw.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()

	for i, w := range results {
		if w.Code != http.StatusOK {
			t.Fatalf("client %d: status %d, body %s", i, w.Code, w.Body.String())
		}
		indices, done := parseStream(t, w.Body)
		if len(indices) != wantTokens {
			t.Fatalf("client %d: got %d tokens, want %d", i, len(indices), wantTokens)
		}
		for j, idx := range indices {
			if idx != j {
				t.Fatalf("client %d: token %d has index %d (out of order)", i, j, idx)
			}
		}
		if !done {
			t.Fatalf("client %d: no [DONE] terminator", i)
		}
	}
	if fl := gw.InFlight(); fl != 0 {
		t.Fatalf("in flight = %d after drain, want 0", fl)
	}

	// Post-drain admission must be refused with 503.
	w := postCompletion(h, fmt.Sprintf(`{"model":%q,"max_tokens":1}`, names[0]))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain request: status %d, want 503", w.Code)
	}
}

// TestGatewayStreamCompletesUnderPacing serves a stream with no shutdown:
// tokens must arrive through the paced loop alone.
func TestGatewayStreamCompletesUnderPacing(t *testing.T) {
	gw, names := newTestGateway(t, Options{Speedup: 50000})
	defer gw.Shutdown(context.Background())
	w := postCompletion(gw.Handler(), fmt.Sprintf(
		`{"model":%q,"input_tokens":16,"max_tokens":4,"stream":true}`, names[0]))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", w.Code, w.Body.String())
	}
	indices, done := parseStream(t, w.Body)
	if len(indices) != 4 || !done {
		t.Fatalf("got %d tokens (done=%v), want 4 with [DONE]", len(indices), done)
	}
}

// TestStreamHeadersAtAdmission checks that a streamed response's headers
// reach the client at admission, long before the first token: at this
// speedup prefill alone takes minutes of wall time.
func TestStreamHeadersAtAdmission(t *testing.T) {
	gw, names := newTestGateway(t, Options{Speedup: 1e-3})
	defer gw.Shutdown(context.Background())
	srv := httptest.NewServer(gw.Handler())
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/completions", strings.NewReader(
		fmt.Sprintf(`{"model":%q,"input_tokens":16,"max_tokens":4,"stream":true}`, names[0])))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatalf("no response headers before the first token: %v", err)
	}
	// Closing the body early disconnects the client, which aborts the request.
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "text/event-stream" {
		t.Fatalf("status %d, Content-Type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
}

// TestGatewayNonStreaming exercises the JSON (stream=false) path.
func TestGatewayNonStreaming(t *testing.T) {
	gw, names := newTestGateway(t, Options{Speedup: 50000})
	defer gw.Shutdown(context.Background())
	w := postCompletion(gw.Handler(), fmt.Sprintf(
		`{"model":%q,"prompt":"hello live serving world","max_tokens":3}`, names[1]))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", w.Code, w.Body.String())
	}
	var resp struct {
		Choices []struct {
			Text         string  `json:"text"`
			FinishReason *string `json:"finish_reason"`
		} `json:"choices"`
		Usage struct {
			CompletionTokens int `json:"completion_tokens"`
		} `json:"usage"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Choices) != 1 || resp.Usage.CompletionTokens != 3 {
		t.Fatalf("unexpected response: %s", w.Body.String())
	}
	if resp.Choices[0].FinishReason == nil || *resp.Choices[0].FinishReason != "stop" {
		t.Fatalf("finish_reason = %v", resp.Choices[0].FinishReason)
	}
}

// TestGatewayAdmissionBounds covers the 4xx/5xx shedding paths: per-model
// queue bound and rate limit.
func TestGatewayAdmissionBounds(t *testing.T) {
	// Near-frozen pacing: admitted requests stay in flight for the whole
	// test, so bounds are hit deterministically.
	gw, names := newTestGateway(t, Options{Speedup: 1e-6, MaxQueuePerModel: 1})
	h := gw.Handler()

	first := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		first <- postCompletion(h, fmt.Sprintf(`{"model":%q,"max_tokens":2,"stream":true}`, names[0]))
	}()
	deadline := time.Now().Add(5 * time.Second)
	for gw.Admitted() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("first request never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	// Same model again: queue full → 429.
	if w := postCompletion(h, fmt.Sprintf(`{"model":%q,"max_tokens":1}`, names[0])); w.Code != http.StatusTooManyRequests {
		t.Fatalf("queue-full request: status %d, want 429", w.Code)
	}
	// Unknown model → 404.
	if w := postCompletion(h, `{"model":"no-such-model","max_tokens":1}`); w.Code != http.StatusNotFound {
		t.Fatalf("unknown model: status %d, want 404", w.Code)
	}
	// Missing model → 400.
	if w := postCompletion(h, `{"max_tokens":1}`); w.Code != http.StatusBadRequest {
		t.Fatalf("missing model: status %d, want 400", w.Code)
	}

	// Drain: the in-flight request must still complete with all tokens.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := gw.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	w := <-first
	indices, done := parseStream(t, w.Body)
	if len(indices) != 2 || !done {
		t.Fatalf("in-flight stream after drain: %d tokens (done=%v), want 2", len(indices), done)
	}
}

func TestGatewayRateLimit(t *testing.T) {
	gw, names := newTestGateway(t, Options{Speedup: 1e-6, RatePerSec: 1e-9, Burst: 1})
	h := gw.Handler()
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		done <- postCompletion(h, fmt.Sprintf(`{"model":%q,"max_tokens":1,"stream":true}`, names[0]))
	}()
	deadline := time.Now().Add(5 * time.Second)
	for gw.Admitted() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("first request never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	w := postCompletion(h, fmt.Sprintf(`{"model":%q,"max_tokens":1}`, names[1]))
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("rate-limited request: status %d, want 429", w.Code)
	}
	if ra := w.Header().Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After header")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := gw.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	<-done
}

// TestGatewayMetricsAndHealth checks the observability endpoints: required
// series present, healthz flips to 503 on drain.
func TestGatewayMetricsAndHealth(t *testing.T) {
	gw, names := newTestGateway(t, Options{Speedup: 50000})
	h := gw.Handler()

	if w := get(h, "/healthz"); w.Code != http.StatusOK {
		t.Fatalf("healthz: status %d, want 200", w.Code)
	}

	// Serve a few completions so quantiles and counters are non-trivial.
	for i := 0; i < 3; i++ {
		w := postCompletion(h, fmt.Sprintf(
			`{"model":%q,"input_tokens":8,"max_tokens":3,"stream":true}`, names[i%len(names)]))
		if w.Code != http.StatusOK {
			t.Fatalf("completion %d: status %d", i, w.Code)
		}
	}

	w := get(h, "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("metrics: status %d", w.Code)
	}
	body := w.Body.String()
	for _, want := range []string{
		`aegaeon_gateway_requests_total{code="200"} `,
		"aegaeon_gateway_admitted_total 3",
		"aegaeon_gateway_completions_total 3",
		"aegaeon_gateway_tokens_streamed_total 9",
		`aegaeon_gateway_queue_depth`,
		`aegaeon_gateway_ttft_seconds{quantile="0.99"} `,
		"aegaeon_gateway_ttft_seconds_count 3",
		"aegaeon_gateway_tbt_seconds_count 6",
		"aegaeon_model_switches_total ",
		"aegaeon_gateway_inflight 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q\n%s", want, body)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := gw.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if w := get(h, "/healthz"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while drained: status %d, want 503", w.Code)
	}
	// Metrics must still render from the cached snapshot after stop.
	if w := get(h, "/metrics"); w.Code != http.StatusOK {
		t.Fatalf("metrics after stop: status %d", w.Code)
	}
}

func get(h http.Handler, path string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// TestSpeedupOptionHasNoEffect holds Options.Speedup to its comment: the
// driver alone paces the gateway. A gateway told 1e6x over a driver pacing
// at 1e-6x keeps a virtual clock that has not reached a millisecond.
func TestSpeedupOptionHasNoEffect(t *testing.T) {
	gw, _ := newGateway(t, assemble.Spec{}, testCluster{speedup: 1e-6}, Options{Speedup: 1e6})
	defer gw.drv.Stop()
	time.Sleep(20 * time.Millisecond)
	var now sim.Time
	gw.read(func(v sim.Time) { now = v })
	if now >= sim.Time(time.Millisecond) {
		t.Fatalf("virtual clock at %v after 20ms of wall time: the gateway paced at Options.Speedup", now)
	}
}

// TestGatewayModelsEndpoint checks the catalog listing.
func TestGatewayModelsEndpoint(t *testing.T) {
	gw, names := newTestGateway(t, Options{Speedup: 1000})
	defer gw.Shutdown(context.Background())
	w := get(gw.Handler(), "/v1/models")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	var resp struct {
		Data []struct {
			ID         string `json:"id"`
			Deployment string `json:"deployment"`
		} `json:"data"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Data) != len(names) {
		t.Fatalf("listed %d models, want %d", len(resp.Data), len(names))
	}
	for _, m := range resp.Data {
		if m.Deployment != "live" {
			t.Fatalf("model %s routed to %q", m.ID, m.Deployment)
		}
	}
}
