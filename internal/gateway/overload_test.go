package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"aegaeon/internal/assemble"
	"aegaeon/internal/core"
	"aegaeon/internal/fault"
	"aegaeon/internal/overload"
	"aegaeon/internal/sim"
	"aegaeon/internal/slo"
	"aegaeon/internal/slomon"
)

// hourTTFT is a TTFT target no test's estimate reaches, so the core never
// sheds a request as doomed.
var hourTTFT = slo.SLO{TTFT: time.Hour, TBT: 100 * time.Millisecond}

// escalate steps ctl up to level at virtual times far past any test horizon,
// so the brownout loop's steps, all earlier, can neither escalate nor recover
// it. Call it once per controller.
func escalate(ctl *overload.Controller, level overload.Level) {
	for at := sim.Time(1 << 62); ctl.Level() < level; at += time.Minute {
		ctl.Step(at, overload.Signals{Page: true})
	}
}

// pinGatewayController returns a controller frozen at level.
func pinGatewayController(level overload.Level) *overload.Controller {
	ctl := overload.NewController()
	escalate(ctl, level)
	return ctl
}

// completion is the body of a completion request for tests.
func completion(model, prio string, inTok, maxTok int, stream bool) string {
	return fmt.Sprintf(`{"model":%q,"priority":%q,"input_tokens":%d,"max_tokens":%d,"stream":%v}`,
		model, prio, inTok, maxTok, stream)
}

// assertRejected checks that w is the core's or the edge's rejection for
// reason: a 503 JSON error naming it, a Retry-After of at least minRetry
// seconds, and nothing else written before it.
func assertRejected(t *testing.T, w *httptest.ResponseRecorder, reason string, minRetry int) {
	t.Helper()
	var body struct {
		Error struct {
			Message string `json:"message"`
		} `json:"error"`
	}
	if w.Code != http.StatusServiceUnavailable || w.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("status %d, Content-Type %q, want a 503 JSON error: %s",
			w.Code, w.Header().Get("Content-Type"), w.Body.String())
	}
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil || body.Error.Message != "request rejected: "+reason {
		t.Fatalf("body %q, want the JSON error for %q", w.Body.String(), reason)
	}
	if ra, err := strconv.Atoi(w.Header().Get("Retry-After")); err != nil || ra < minRetry {
		t.Fatalf("Retry-After %q, want >= %d", w.Header().Get("Retry-After"), minRetry)
	}
}

// counters reads the gateway's shed accounting under its lock.
func counters(gw *Gateway, model, reason string) (rejected, failed uint64, breaker fault.BreakerState) {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	return gw.ovlRejected[reason], gw.failed, gw.breakerFor(model).State()
}

// TestTokenBucketColdStart is the regression for the first-call refill bug:
// a bucket constructed with burst B must admit exactly B back-to-back
// requests from a cold start, not B+1. (The old implementation skipped the
// refill on the first allow() after a quiet period, leaving the initial
// burst untouched while also not charging elapsed time — one free request.)
func TestTokenBucketColdStart(t *testing.T) {
	t0 := time.Unix(1000, 0)
	b := newTokenBucket(1, 2, t0)

	// Exactly burst=2 requests pass at the construction instant.
	for i := 0; i < 2; i++ {
		if !b.allow(t0) {
			t.Fatalf("cold-start request %d rejected within burst", i)
		}
	}
	if b.allow(t0) {
		t.Fatal("cold start admitted burst+1 requests")
	}

	// A long quiet period must not overflow the burst either: after 100s at
	// 1 tok/s the bucket holds burst tokens, not 100.
	later := t0.Add(100 * time.Second)
	for i := 0; i < 2; i++ {
		if !b.allow(later) {
			t.Fatalf("post-idle request %d rejected within burst", i)
		}
	}
	if b.allow(later) {
		t.Fatal("idle period accumulated more than burst tokens")
	}

	// Refill is linear in elapsed time from the seeded clock.
	if b.allow(later.Add(500 * time.Millisecond)) {
		t.Fatal("half a token treated as a whole one")
	}
	if !b.allow(later.Add(1600 * time.Millisecond)) {
		t.Fatal("refill did not credit 1 token after 1.6s at 1 tok/s")
	}

	// Unlimited mode ignores the clock entirely.
	u := newTokenBucket(0, 0, t0)
	if !u.allow(t0) {
		t.Fatal("rate 0 must mean unlimited")
	}
}

// TestAdmissionBrownoutLevels serves completions against pinned controllers
// and checks each level's policy as the core applies it and the gateway
// answers it: admit-none rejects everything, shed-low rejects only the low
// tier, freeze rejects only cold models — each a 503 with the core's typed
// reason, counted as an overload rejection and never as a failure.
func TestAdmissionBrownoutLevels(t *testing.T) {
	t.Run("admit_none", func(t *testing.T) {
		gw, names := newGateway(t, assemble.Spec{}, testCluster{slo: hourTTFT,
			ctl: pinGatewayController(overload.LevelAdmitNone)}, Options{Speedup: 50000})
		defer gw.Shutdown(context.Background())
		assertRejected(t, postCompletion(gw.Handler(), completion(names[0], "high", 1, 1, false)), core.ShedAdmitNone, 1)
		if rej, failed, _ := counters(gw, names[0], core.ShedAdmitNone); rej != 1 || failed != 0 {
			t.Fatalf("admit_none rejections %d, failures %d, want 1 and 0", rej, failed)
		}
	})

	t.Run("shed_low_priority", func(t *testing.T) {
		gw, names := newGateway(t, assemble.Spec{}, testCluster{slo: hourTTFT,
			ctl: pinGatewayController(overload.LevelShedLow)}, Options{Speedup: 50000})
		defer gw.Shutdown(context.Background())
		h := gw.Handler()
		assertRejected(t, postCompletion(h, completion(names[0], "low", 1, 1, false)), core.ShedLowPriority, 1)
		if w := postCompletion(h, completion(names[0], "normal", 1, 1, false)); w.Code != http.StatusOK {
			t.Fatalf("normal tier at shed-low: status %d: %s", w.Code, w.Body.String())
		}
	})

	t.Run("frozen_cold_model", func(t *testing.T) {
		ctl := overload.NewController()
		gw, names := newGateway(t, assemble.Spec{}, testCluster{slo: hourTTFT, ctl: ctl}, Options{Speedup: 50000})
		defer gw.Shutdown(context.Background())
		h := gw.Handler()
		// Serving names[0] before the freeze leaves it resident: warm.
		if w := postCompletion(h, completion(names[0], "normal", 1, 1, false)); w.Code != http.StatusOK {
			t.Fatalf("warm-up: status %d: %s", w.Code, w.Body.String())
		}
		if err := gw.drv.Call(func() { escalate(ctl, overload.LevelFreeze) }); err != nil {
			t.Fatal(err)
		}
		assertRejected(t, postCompletion(h, completion(names[1], "normal", 1, 1, false)), core.ShedColdFreeze, 1)
		if w := postCompletion(h, completion(names[0], "normal", 1, 1, false)); w.Code != http.StatusOK {
			t.Fatalf("warm model at freeze: status %d: %s", w.Code, w.Body.String())
		}
	})
}

// TestShrinkCapsTheStream checks that at the shrink level the client is
// promised exactly the tokens the core will produce: the core caps the
// output, the stream delivers that many and then [DONE], and the JSON
// response counts the same.
func TestShrinkCapsTheStream(t *testing.T) {
	gw, names := newGateway(t, assemble.Spec{}, testCluster{slo: hourTTFT,
		ctl: pinGatewayController(overload.LevelShrink)}, Options{Speedup: 50000})
	defer gw.Shutdown(context.Background())
	h := gw.Handler()
	want := gw.cl.Overload().OutputCap(8)
	if want >= 8 {
		t.Fatalf("OutputCap(8) = %d at shrink, want a cap", want)
	}
	w := postCompletion(h, completion(names[0], "normal", 4, 8, true))
	indices, done := parseStream(t, w.Body)
	if w.Code != http.StatusOK || len(indices) != want || !done {
		t.Fatalf("status %d, %d tokens, [DONE] %v; want 200, %d tokens, [DONE]", w.Code, len(indices), done, want)
	}
	w = postCompletion(h, completion(names[0], "normal", 4, 8, false))
	var resp struct {
		Usage map[string]int `json:"usage"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || w.Code != http.StatusOK {
		t.Fatalf("JSON completion: status %d body %s", w.Code, w.Body.String())
	}
	if got := resp.Usage["completion_tokens"]; got != want {
		t.Fatalf("completion_tokens %d, want %d", got, want)
	}
}

// TestOverloadShedsLeaveBreakerAlone holds sheds apart from backend
// failures. Breakers answer capacity loss and brownout answers shortfall, so
// a shed — on arrival or from the queue — must never count toward the
// model's circuit breaker. An arrival shed is a rejection, not a failure.
func TestOverloadShedsLeaveBreakerAlone(t *testing.T) {
	t.Run("arrival", func(t *testing.T) {
		gw, names := newGateway(t, assemble.Spec{}, testCluster{slo: hourTTFT,
			ctl: pinGatewayController(overload.LevelAdmitNone)}, Options{Speedup: 50000})
		defer gw.Shutdown(context.Background())
		h := gw.Handler()
		// More sheds of one model than the breaker's failure threshold.
		for i := 0; i <= breakerThreshold; i++ {
			assertRejected(t, postCompletion(h, completion(names[0], "normal", 16, 8, false)), core.ShedAdmitNone, 1)
		}
		assertRejected(t, postCompletion(h, completion(names[0], "normal", 16, 8, true)), core.ShedAdmitNone, 1)
		rej, failed, br := counters(gw, names[0], core.ShedAdmitNone)
		if rej != breakerThreshold+2 || failed != 0 || br != fault.BreakerClosed {
			t.Fatalf("rejections %d, failures %d, breaker %v; want %d, 0, closed", rej, failed, br, breakerThreshold+2)
		}
		if body := get(h, "/metrics").Body.String(); !strings.Contains(body, "\naegaeon_gateway_failed_total 0\n") {
			t.Error("/metrics counts arrival sheds as failures")
		}
	})

	t.Run("reaped", func(t *testing.T) {
		// One prefill instance and a nearly frozen clock: a long prompt to
		// names[0] holds the instance while low-tier requests to names[1]
		// wait in its queue. Then the level rises to shed-low and the clock
		// runs free, and the reaper sheds the queued low-tier requests.
		ctl := overload.NewController()
		gw, names := newGateway(t, assemble.Spec{}, testCluster{slo: hourTTFT, prefill: 1, ctl: ctl},
			Options{Speedup: 1e-6})
		defer gw.Shutdown(context.Background())
		h := gw.Handler()
		var admitted uint64
		serve := func(body string) <-chan *httptest.ResponseRecorder {
			out := make(chan *httptest.ResponseRecorder, 1)
			go func() { out <- postCompletion(h, body) }()
			admitted++
			deadline := time.Now().Add(10 * time.Second)
			for gw.Admitted() < admitted {
				if time.Now().After(deadline) {
					t.Fatal("request never admitted")
				}
				time.Sleep(time.Millisecond)
			}
			return out
		}
		long := serve(completion(names[0], "normal", 16384, 2, true))
		var low []<-chan *httptest.ResponseRecorder
		for i := 0; i < breakerThreshold; i++ {
			low = append(low, serve(completion(names[1], "low", 16, 2, true)))
		}
		if err := gw.drv.Call(func() { escalate(ctl, overload.LevelShedLow) }); err != nil {
			t.Fatal(err)
		}
		gw.drv.Accelerate()
		if w := <-long; w.Code != http.StatusOK || !strings.HasSuffix(w.Body.String(), "data: [DONE]\n\n") {
			t.Fatalf("long request: status %d: %s", w.Code, w.Body.String())
		}
		const frame = `data: {"error":"request failed: overload: ` + core.ShedLowPriority + `"}`
		for _, out := range low {
			w := <-out
			if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), frame) || strings.Contains(w.Body.String(), "[DONE]") {
				t.Fatalf("reaped stream: status %d body %q, want 200 ending in %s", w.Code, w.Body.String(), frame)
			}
		}
		rej, failed, br := counters(gw, names[1], core.ShedLowPriority)
		if rej != 0 || failed != breakerThreshold || br != fault.BreakerClosed {
			t.Fatalf("rejections %d, failures %d, breaker %v; want 0, %d, closed", rej, failed, br, breakerThreshold)
		}
		if w := postCompletion(h, completion(names[1], "normal", 16, 2, false)); w.Code != http.StatusOK {
			t.Fatalf("normal tier after the reaped ones: status %d: %s", w.Code, w.Body.String())
		}
	})
}

// TestBrownoutTickHoldsOnEmptyQueues checks that the wall-clock brownout
// tick steps the controller under the scheduler's signal rule: with the
// fleet alert paging but every prefill queue empty, the misses are echoes of
// past sheds, not current load, so a tick must leave the level at normal.
func TestBrownoutTickHoldsOnEmptyQueues(t *testing.T) {
	gw, _ := newGateway(t, assemble.Spec{Overload: true}, testCluster{slo: hourTTFT}, Options{Speedup: 50000})
	defer gw.Shutdown(context.Background())
	mon := gw.opts.SLOMon
	// A minute of tokens, every one past its deadline.
	obs := make([]slomon.TokenObs, 600)
	for i := range obs {
		obs[i] = slomon.TokenObs{Model: 1, Request: "r0", Index: i, At: sim.Time(i+1) * 100 * time.Millisecond}
	}
	if err := gw.drv.Call(func() { mon.ObserveTokens(obs) }); err != nil {
		t.Fatal(err)
	}
	if st := mon.FleetAlert(); st != slomon.AlertPage {
		t.Fatalf("fleet alert = %v, want page", st)
	}
	if err := gw.drv.Call(gw.cl.StepOverload); err != nil {
		t.Fatal(err)
	}
	if lvl := gw.cl.Overload().Level(); lvl != overload.LevelNormal {
		t.Fatalf("level after a tick with empty queues = %v, want normal", lvl)
	}
}

// TestPredictiveRejection sets a TTFT target below any model switch, so the
// core predicts every arrival's first token past its deadline and sheds it.
// The gateway answers before writing anything else, on the JSON and the SSE
// path alike: 503, the core's doomed_on_arrival, and a Retry-After of the
// core's overshoot plus a second — longer for a prompt whose prefill alone
// takes seconds.
func TestPredictiveRejection(t *testing.T) {
	gw, names := newGateway(t, assemble.Spec{}, testCluster{slo: slo.SLO{TTFT: time.Nanosecond, TBT: 100 * time.Millisecond},
		ctl: overload.NewController()}, Options{Speedup: 50000})
	defer gw.Shutdown(context.Background())
	h := gw.Handler()
	for _, stream := range []bool{false, true} {
		assertRejected(t, postCompletion(h, completion(names[0], "normal", 1, 1, stream)), core.ShedDoomed, 1)
	}
	assertRejected(t, postCompletion(h, completion(names[0], "normal", 16384, 1, true)), core.ShedDoomed, 2)
	if rej, failed, _ := counters(gw, names[0], core.ShedDoomed); rej != 3 || failed != 0 {
		t.Fatalf("doomed rejections %d, failures %d, want 3 and 0", rej, failed)
	}
}

// TestRetryBudget checks the storm-damping contract: retries spend whole
// tokens from a budget that fresh traffic refills fractionally, so once the
// burst is gone a pure retry storm is rejected outright.
func TestRetryBudget(t *testing.T) {
	gw, names := newGateway(t, assemble.Spec{}, testCluster{slo: hourTTFT, ctl: overload.NewController()},
		Options{Speedup: 50000})
	defer gw.Shutdown(context.Background())

	for i := 0; i < retryBurst; i++ {
		if ok, _, reason, _ := gw.admit(names[0], i+1); !ok {
			t.Fatalf("retry %d rejected within budget: %q", i+1, reason)
		}
		gw.releaseAdmission(names[0])
	}
	ok, code, reason, _ := gw.admit(names[0], retryBurst+1)
	if ok || code != http.StatusServiceUnavailable || reason != "retry_budget" {
		t.Fatalf("exhausted budget: ok=%v code=%d reason=%q", ok, code, reason)
	}

	// Fresh traffic is unaffected, and one fresh request's deposit is a
	// fraction of a retry.
	if ok, _, reason, _ := gw.admit(names[0], 0); !ok {
		t.Fatalf("fresh request rejected after budget exhaustion: %q", reason)
	}
	gw.releaseAdmission(names[0])

	// The X-Retry-Attempt header routes HTTP requests onto the same path.
	r := httptest.NewRequest(http.MethodPost, "/v1/completions",
		strings.NewReader(completion(names[0], "normal", 1, 1, false)))
	r.Header.Set("X-Retry-Attempt", "7")
	w := httptest.NewRecorder()
	gw.Handler().ServeHTTP(w, r)
	assertRejected(t, w, "retry_budget", 1)
}

// TestCompletionPriorityValidation checks the HTTP tier field: unknown
// priorities are a 400, known ones are accepted end to end.
func TestCompletionPriorityValidation(t *testing.T) {
	gw, names := newTestGateway(t, Options{Speedup: 50000})
	defer gw.Shutdown(context.Background())
	h := gw.Handler()

	w := postCompletion(h, `{"model":"`+names[0]+`","priority":"platinum","max_tokens":1}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("bogus priority: status %d, want 400", w.Code)
	}
	for _, p := range []string{"", "low", "normal", "high"} {
		w := postCompletion(h, `{"model":"`+names[0]+`","priority":"`+p+`","input_tokens":4,"max_tokens":2,"stream":true}`)
		if w.Code != http.StatusOK {
			t.Fatalf("priority %q: status %d: %s", p, w.Code, w.Body.String())
		}
	}
}

// TestDebugOverloadEndpoint reads /debug/overload back and holds it to its
// schema: controller snapshot, retry budget, and the preseeded rejection
// counters. Without an overload controller the path is a 404.
func TestDebugOverloadEndpoint(t *testing.T) {
	gw, _ := newGateway(t, assemble.Spec{}, testCluster{slo: hourTTFT, ctl: overload.NewController()},
		Options{Speedup: 50000})
	defer gw.Shutdown(context.Background())

	w := get(gw.Handler(), "/debug/overload")
	if w.Code != http.StatusOK {
		t.Fatalf("/debug/overload: status %d: %s", w.Code, w.Body.String())
	}
	var resp struct {
		Controller overload.Snapshot  `json:"controller"`
		Budget     map[string]float64 `json:"retry_budget"`
		Rejected   map[string]uint64  `json:"rejected"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode: %v\n%s", err, w.Body.String())
	}
	if resp.Controller.Level != "normal" {
		t.Fatalf("controller level = %q, want normal", resp.Controller.Level)
	}
	if resp.Budget["burst"] <= 0 || resp.Budget["tokens"] <= 0 {
		t.Errorf("retry budget not initialized: %v", resp.Budget)
	}
	for _, reason := range overloadReasons {
		if _, ok := resp.Rejected[reason]; !ok {
			t.Errorf("rejected map missing preseeded reason %q", reason)
		}
	}

	assertGated404(t, "overload control disabled (cluster built without an overload controller)", "/debug/overload")
}

// TestMetricsOverloadExposition is the exposition-format regression gate for
// the overload families: each declares HELP and TYPE, counters end in
// _total, every rejection reason renders as a zero-initialized series, and
// none of the families appear when overload control is off.
func TestMetricsOverloadExposition(t *testing.T) {
	gw, _ := newGateway(t, assemble.Spec{}, testCluster{slo: hourTTFT, ctl: overload.NewController()},
		Options{Speedup: 50000})
	defer gw.Shutdown(context.Background())

	w := get(gw.Handler(), "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("metrics: status %d", w.Code)
	}
	body := w.Body.String()

	types := map[string]string{}
	helps := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			types[f[2]] = f[3]
		}
		if strings.HasPrefix(line, "# HELP ") {
			if f := strings.Fields(line); len(f) >= 4 {
				helps[f[2]] = true
			} else {
				t.Fatalf("HELP line %q has no text", line)
			}
		}
	}
	for fam, wantType := range map[string]string{
		"aegaeon_overload_level":               "gauge",
		"aegaeon_admission_rejected_total":     "counter",
		"aegaeon_retry_budget_exhausted_total": "counter",
	} {
		if types[fam] != wantType {
			t.Errorf("family %q: TYPE = %q, want %q", fam, types[fam], wantType)
		}
		if !helps[fam] {
			t.Errorf("family %q has no HELP line", fam)
		}
		if wantType == "counter" && !strings.HasSuffix(fam, "_total") {
			t.Errorf("counter %q does not end in _total", fam)
		}
	}
	for _, reason := range overloadReasons {
		series := `aegaeon_admission_rejected_total{reason="` + reason + `"} 0`
		if !strings.Contains(body, series) {
			t.Errorf("missing preseeded series %q", series)
		}
	}
	if !strings.Contains(body, "aegaeon_overload_level 0") {
		t.Error("overload level gauge not at 0 under a normal controller")
	}

	gwOff, _ := newTestGateway(t, Options{Speedup: 50000})
	defer gwOff.Shutdown(context.Background())
	if off := get(gwOff.Handler(), "/metrics").Body.String(); strings.Contains(off, "aegaeon_overload_level") {
		t.Error("overload families exposed with overload control off")
	}
}
