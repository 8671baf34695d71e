package gateway

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"aegaeon/internal/assemble"
	"aegaeon/internal/decision"
	"aegaeon/internal/fault"
)

// A client that disconnects mid-stream aborts its simulated request: the
// admission slot frees immediately (not when the request would have
// finished) and the core releases the request's KV. The abort is its own
// outcome everywhere: the proxy clears the request's metadata entry, the
// gateway counts an abort (not a completion) and takes no latency samples
// or breaker verdict from it, and the journal closes its chain as aborted.
func TestClientDisconnectAbortsRequest(t *testing.T) {
	// Real time: a 512-token request takes minutes of wall clock, so the
	// only way InFlight can reach zero quickly is via the abort path.
	gw, names := newGateway(t, assemble.Spec{Decisions: true}, testCluster{}, Options{Speedup: 1})
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/v1/completions", strings.NewReader(fmt.Sprintf(
		`{"model":%q,"input_tokens":32,"max_tokens":512,"stream":true}`, names[0],
	))).WithContext(ctx)
	w := httptest.NewRecorder()
	handlerDone := make(chan struct{})
	go func() {
		gw.Handler().ServeHTTP(w, req)
		close(handlerDone)
	}()

	deadline := time.Now().Add(10 * time.Second)
	for gw.Admitted() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("request never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-handlerDone

	for gw.InFlight() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("InFlight = %d long after disconnect — abort never released the slot", gw.InFlight())
		}
		time.Sleep(time.Millisecond)
	}
	gw.mu.Lock()
	aborted := gw.aborted
	gw.mu.Unlock()
	if aborted != 1 {
		t.Fatalf("aborted = %d, want 1", aborted)
	}
	var live int
	if err := gw.drv.Call(func() {
		for _, d := range gw.cl.Deployments() {
			live += d.System.LiveInFlight()
		}
	}); err != nil {
		t.Fatal(err)
	}
	if live != 0 {
		t.Fatalf("cluster still tracks %d live requests after abort", live)
	}
	// The metadata delete lands one store RTT after the abort.
	id := fmt.Sprintf("cmpl-%d", gw.nextID.Load())
	for {
		var keys []string
		if err := gw.drv.Call(func() { keys = gw.cl.Store().Keys("req/") }); err != nil {
			t.Fatal(err)
		}
		if len(keys) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("store still holds %v after the abort of %s", keys, id)
		}
		time.Sleep(time.Millisecond)
	}

	mreq := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	mw := httptest.NewRecorder()
	gw.Handler().ServeHTTP(mw, mreq)
	for _, line := range []string{"aegaeon_gateway_aborted_total 1", "aegaeon_gateway_completions_total 0"} {
		if !strings.Contains(mw.Body.String(), "\n"+line+"\n") {
			t.Errorf("/metrics lacks %q", line)
		}
	}
	if n := gw.ttftHist.Snapshot().Count; n != 0 {
		t.Errorf("TTFT histogram counted %d samples from an aborted request", n)
	}
	if n := gw.tbtHist.Snapshot().Count; n != 0 {
		t.Errorf("TBT histogram counted %d samples from an aborted request", n)
	}
	gw.mu.Lock()
	state := gw.breakerFor(names[0]).State()
	gw.mu.Unlock()
	if state != fault.BreakerClosed {
		t.Errorf("breaker of %s is %v after an abort, want closed", names[0], state)
	}
	chain := gw.cl.Decisions().Chain(id)
	if len(chain) == 0 {
		t.Fatalf("no journal chain for %s", id)
	}
	if last := chain[len(chain)-1]; last.Kind != decision.KindTerminal || last.Outcome != decision.OutcomeAborted {
		t.Errorf("chain of %s ends in %s/%s, want %s/%s", id, last.Kind, last.Outcome,
			decision.KindTerminal, decision.OutcomeAborted)
	}
	if err := gw.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// The headline chaos invariant at the HTTP boundary: an instance crash in
// the middle of an SSE stream, detected and failed over by the proxy's
// health leases, is invisible to the client — every token index arrives
// exactly once, in order, with no gap where the crash happened.
func TestMidStreamCrashYieldsGapFreeStream(t *testing.T) {
	const wantTokens = 40
	gw, names := newGateway(t, assemble.Spec{}, testCluster{prefill: 1, decode: 2, faultSeed: 11}, Options{Speedup: 50})
	if err := gw.drv.Post(gw.cl.StartHealth); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(gw.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/completions", "application/json", strings.NewReader(fmt.Sprintf(
		`{"model":%q,"input_tokens":32,"max_tokens":%d,"stream":true}`, names[0], wantTokens,
	)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	crashed := false
	var indices []int
	doneMarker := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "data: [DONE]" {
			doneMarker = true
			continue
		}
		if !strings.HasPrefix(line, "data: {") {
			continue
		}
		var chunk completionChunk
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &chunk); err != nil {
			t.Fatalf("bad SSE chunk %q: %v", line, err)
		}
		if chunk.TokenIndex < 0 {
			continue
		}
		indices = append(indices, chunk.TokenIndex)
		if !crashed && chunk.TokenIndex >= 5 {
			crashed = true
			if perr := gw.drv.Post(func() {
				if err := gw.cl.Crash("live/decode0"); err != nil {
					t.Error(err)
				}
			}); perr != nil {
				t.Fatal(perr)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !crashed {
		t.Fatal("stream finished before the crash could be injected")
	}
	if !doneMarker {
		t.Fatal("no [DONE] terminator after recovery")
	}
	if len(indices) != wantTokens {
		t.Fatalf("received %d tokens, want %d: %v", len(indices), wantTokens, indices)
	}
	for i, idx := range indices {
		if idx != i {
			t.Fatalf("token %d has index %d — stream has a gap or duplicate across the failover", i, idx)
		}
	}

	var fs fault.Stats
	var failovers int
	if err := gw.drv.Call(func() {
		fs = gw.cl.FaultStats()
		failovers = gw.cl.Failovers()
	}); err != nil {
		t.Fatal(err)
	}
	if fs.Crashes != 1 || failovers != 1 {
		t.Fatalf("crashes=%d failovers=%d, want 1/1", fs.Crashes, failovers)
	}
	if fs.Resumed+fs.Recomputed == 0 {
		t.Fatal("failover recovered no requests")
	}
	if err := gw.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// When a model's serving partition is gone, its requests finish cleanly
// rejected; consecutive failures trip the per-model circuit breaker so
// follow-on traffic is shed at admission with 503 + Retry-After.
func TestBreakerOpensAfterPartitionLoss(t *testing.T) {
	gw, names := newGateway(t, assemble.Spec{}, testCluster{prefill: 1, decode: 1, faultSeed: 11}, Options{Speedup: 5000})
	defer gw.Shutdown(context.Background())
	if err := gw.drv.Post(func() {
		if err := gw.cl.Crash("live/decode0"); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	h := gw.Handler()
	for i := 0; i < 3; i++ {
		w := postCompletion(h, fmt.Sprintf(`{"model":%q,"input_tokens":16,"max_tokens":8}`, names[0]))
		if w.Code != http.StatusServiceUnavailable {
			t.Fatalf("request %d: status %d, body %s", i, w.Code, w.Body.String())
		}
		if !strings.Contains(w.Body.String(), "request failed") {
			t.Fatalf("request %d: unexpected body %s", i, w.Body.String())
		}
		if w.Header().Get("Retry-After") == "" {
			t.Fatalf("request %d: 503 without Retry-After", i)
		}
	}
	// Breaker tripped: the next request is rejected at admission, before
	// touching the simulation.
	w := postCompletion(h, fmt.Sprintf(`{"model":%q,"input_tokens":16,"max_tokens":8}`, names[0]))
	if w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), "circuit_open") {
		t.Fatalf("status %d, body %s — breaker did not open", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("circuit_open 503 without Retry-After")
	}
	// Other models are unaffected by this model's breaker... but share the
	// dead decode partition, so just verify admission-side state.
	gw.mu.Lock()
	st := gw.breakers[names[0]].State()
	gw.mu.Unlock()
	if st != fault.BreakerOpen {
		t.Fatalf("breaker state = %v, want open", st)
	}
	var fs fault.Stats
	if err := gw.drv.Call(func() { fs = gw.cl.FaultStats() }); err != nil {
		t.Fatal(err)
	}
	if fs.Rejected != 3 {
		t.Fatalf("core rejected %d requests, want 3", fs.Rejected)
	}
}

// Near saturation the gateway degrades gracefully: cold models (whose
// admission would force an extra model switch) are shed while warm models
// keep flowing.
func TestShedColdModelNearSaturation(t *testing.T) {
	// At 10 in flight the shed threshold is 9.
	gw, names := newTestGateway(t, Options{Speedup: 1e-6, MaxInFlight: 10})
	defer gw.drv.Stop()
	for i := 0; i < 9; i++ {
		if ok, code, reason, _ := gw.admit(names[0], 0); !ok {
			t.Fatalf("warm admission %d rejected: %d %s", i, code, reason)
		}
	}
	ok, code, reason, ra := gw.admit(names[1], 0)
	if ok || code != http.StatusServiceUnavailable || reason != "shed_cold_model" {
		t.Fatalf("cold model above shed threshold: ok=%v code=%d reason=%s", ok, code, reason)
	}
	if ra <= 0 {
		t.Fatal("shed rejection carries no Retry-After hint")
	}
	if ok, _, _, _ := gw.admit(names[0], 0); !ok {
		t.Fatal("warm model shed below MaxInFlight")
	}
}

// At MaxInFlight 1 the cold-shed threshold rounds down to zero, yet an idle
// gateway must still serve: the first request streams, and a second one
// sent while it is in flight answers saturated.
func TestSingleSlotGatewayServes(t *testing.T) {
	gw, names := newTestGateway(t, Options{Speedup: 1e-6, MaxInFlight: 1})
	defer gw.drv.Stop()
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/v1/completions", strings.NewReader(fmt.Sprintf(
		`{"model":%q,"input_tokens":8,"max_tokens":8,"stream":true}`, names[0],
	))).WithContext(ctx)
	first := httptest.NewRecorder()
	handlerDone := make(chan struct{})
	go func() {
		gw.Handler().ServeHTTP(first, req)
		close(handlerDone)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for gw.Admitted() < 1 {
		select {
		case <-handlerDone:
			t.Fatalf("first request on an idle gateway answered %d: %s", first.Code, first.Body)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("first request never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	w := postCompletion(gw.Handler(), fmt.Sprintf(`{"model":%q,"input_tokens":8,"max_tokens":8}`, names[1]))
	if w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), "request rejected: saturated") {
		t.Errorf("second request while one is in flight: %d %s, want 503 saturated", w.Code, w.Body)
	}
	cancel()
	<-handlerDone
}
