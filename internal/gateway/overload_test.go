package gateway

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"aegaeon/internal/assemble"
	"aegaeon/internal/overload"
	"aegaeon/internal/sim"
	"aegaeon/internal/slo"
	"aegaeon/internal/slomon"
	"aegaeon/internal/workload"
)

// hourTTFT is a TTFT target no test's estimate reaches, so predictive
// admission never rejects.
var hourTTFT = slo.SLO{TTFT: time.Hour, TBT: 100 * time.Millisecond}

// pinGatewayController returns a controller frozen at level: it escalates at
// a virtual time far past any test horizon, so the brownout loop's steps,
// all earlier, can neither escalate nor recover it.
func pinGatewayController(level overload.Level) *overload.Controller {
	ctl := overload.NewController()
	for at := sim.Time(1 << 62); ctl.Level() < level; at += time.Minute {
		ctl.Step(at, overload.Signals{Page: true})
	}
	return ctl
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

// TestEstimateTTFTGolden pins the estimator to hand-computed values:
// est = (depth+1)·prompt/throughput + ceil((depth+1)/group)·switch.
func TestEstimateTTFTGolden(t *testing.T) {
	cases := []struct {
		name   string
		depth  int
		sw     time.Duration
		tput   float64
		prompt int
		group  int
		want   time.Duration
	}{
		{"empty queue", 0, 100 * time.Millisecond, 100, 100, 8, 1100 * time.Millisecond},
		{"full group, one switch", 7, 100 * time.Millisecond, 100, 100, 8, 8100 * time.Millisecond},
		{"overflow into second group", 8, 100 * time.Millisecond, 100, 100, 8, 9200 * time.Millisecond},
		{"fast fleet", 15, 200 * time.Millisecond, 2000, 500, 4, 4800 * time.Millisecond},
		{"free switches", 0, 0, 1000, 1, 1, time.Millisecond},
		{"all inputs clamped", -5, 100 * time.Millisecond, 0, 0, 0, 1100 * time.Millisecond},
	}
	for _, tc := range cases {
		if got := EstimateTTFT(tc.depth, tc.sw, tc.tput, tc.prompt, tc.group); got != tc.want {
			t.Errorf("%s: EstimateTTFT = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestEstimatorProperties holds the estimator to its two structural
// guarantees over randomized inputs: Retry-After is never below one second,
// and the TTFT estimate is monotone non-decreasing in queue depth (a longer
// queue can never predict an earlier first token).
func TestEstimatorProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		sw := time.Duration(rng.Intn(2000)) * time.Millisecond
		tput := 1 + rng.Float64()*5000
		prompt := 1 + rng.Intn(4096)
		group := 1 + rng.Intn(16)
		target := time.Duration(1+rng.Intn(30)) * time.Second

		prev := time.Duration(-1)
		for depth := 0; depth <= 64; depth++ {
			est := EstimateTTFT(depth, sw, tput, prompt, group)
			if est < prev {
				t.Fatalf("trial %d: estimate not monotone in depth: depth %d -> %v after %v (sw=%v tput=%.0f prompt=%d group=%d)",
					trial, depth, est, prev, sw, tput, prompt, group)
			}
			prev = est
			if ra := RetryAfter(est, target); ra < time.Second {
				t.Fatalf("trial %d: RetryAfter(%v, %v) = %v < 1s", trial, est, target, ra)
			}
		}
	}
}

// TestAdmissionBrownoutLevels drives admitRequest against pinned controllers
// and checks each level's policy: admit-none rejects everything, shed-low
// rejects only the low tier, freeze rejects only cold (unqueued) models —
// each with the right typed reason and a counted overload rejection.
func TestAdmissionBrownoutLevels(t *testing.T) {
	newGW := func(ctl *overload.Controller) (*Gateway, []string) {
		return newGateway(t, assemble.Spec{}, testCluster{slo: hourTTFT, ctl: ctl}, Options{
			Speedup:  50000,
			Overload: &OverloadOptions{},
		})
	}

	t.Run("admit_none", func(t *testing.T) {
		gw, names := newGW(pinGatewayController(overload.LevelAdmitNone))
		defer gw.Shutdown(context.Background())
		ok, code, reason, _ := gw.admitRequest("", names[0], workload.PriorityHigh, 1, 0)
		if ok || code != http.StatusServiceUnavailable || reason != "admit_none" {
			t.Fatalf("admit-none: ok=%v code=%d reason=%q", ok, code, reason)
		}
	})

	t.Run("shed_low_priority", func(t *testing.T) {
		gw, names := newGW(pinGatewayController(overload.LevelShedLow))
		defer gw.Shutdown(context.Background())
		if ok, _, reason, _ := gw.admitRequest("", names[0], workload.PriorityLow, 1, 0); ok || reason != "shed_low_priority" {
			t.Fatalf("low tier: ok=%v reason=%q, want shed_low_priority rejection", ok, reason)
		}
		if ok, _, reason, _ := gw.admitRequest("", names[0], workload.PriorityNormal, 1, 0); !ok {
			t.Fatalf("normal tier rejected at shed-low: %q", reason)
		}
		gw.releaseAdmission(names[0], workload.PriorityNormal)
	})

	t.Run("frozen_cold_model", func(t *testing.T) {
		gw, names := newGW(pinGatewayController(overload.LevelFreeze))
		defer gw.Shutdown(context.Background())
		// Warm names[0] by holding one admitted request against it. The
		// admission itself must predate the freeze, so fake the warmth
		// directly: queued[model] > 0 is the gateway's warmth signal.
		gw.mu.Lock()
		gw.queued[names[0]]++
		gw.mu.Unlock()
		if ok, _, reason, _ := gw.admitRequest("", names[1], workload.PriorityNormal, 1, 0); ok || reason != "frozen_cold_model" {
			t.Fatalf("cold model: ok=%v reason=%q, want frozen_cold_model rejection", ok, reason)
		}
		if ok, _, reason, _ := gw.admitRequest("", names[0], workload.PriorityNormal, 1, 0); !ok {
			t.Fatalf("warm model rejected at freeze: %q", reason)
		}
		gw.releaseAdmission(names[0], workload.PriorityNormal)
	})
}

// TestBrownoutTickHoldsOnEmptyQueues checks that the wall-clock brownout
// tick steps the controller under the scheduler's signal rule: with the
// fleet alert paging but every prefill queue empty, the misses are echoes of
// past sheds, not current load, so a tick must leave the level at normal.
func TestBrownoutTickHoldsOnEmptyQueues(t *testing.T) {
	gw, _ := newGateway(t, assemble.Spec{Overload: true}, testCluster{slo: hourTTFT}, Options{
		Speedup:  50000,
		Overload: &OverloadOptions{},
	})
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

// TestPredictiveRejection forces the TTFT estimate over an impossible target
// and checks the typed rejection plus an honest (≥1s, estimate-derived)
// Retry-After both at the admission layer and on the HTTP surface.
func TestPredictiveRejection(t *testing.T) {
	// Any estimate (the switch cost alone is 300ms) is far past a 1ns
	// target, so every request is predicted to miss.
	gw, names := newGateway(t, assemble.Spec{}, testCluster{slo: slo.SLO{TTFT: time.Nanosecond, TBT: 100 * time.Millisecond}},
		Options{Speedup: 50000, Overload: &OverloadOptions{}})
	defer gw.Shutdown(context.Background())

	ok, code, reason, ra := gw.admitRequest("", names[0], workload.PriorityNormal, 1, 0)
	if ok || code != http.StatusServiceUnavailable || reason != "predicted_ttft_miss" {
		t.Fatalf("ok=%v code=%d reason=%q, want predictive 503", ok, code, reason)
	}
	if ra < time.Second {
		t.Fatalf("Retry-After %v < 1s", ra)
	}

	w := postCompletion(gw.Handler(), `{"model":"`+names[0]+`","input_tokens":1,"max_tokens":1}`)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("HTTP status %d, want 503", w.Code)
	}
	if hdr := w.Header().Get("Retry-After"); hdr == "" || hdr == "0" {
		t.Fatalf("Retry-After header = %q, want >= 1", hdr)
	}
	if !strings.Contains(w.Body.String(), "predicted_ttft_miss") {
		t.Fatalf("body %q does not name the rejection reason", w.Body.String())
	}
}

// TestRetryBudget checks the storm-damping contract: retries spend whole
// tokens from a budget that fresh traffic refills fractionally, so once the
// burst is gone a pure retry storm is rejected outright.
func TestRetryBudget(t *testing.T) {
	gw, names := newGateway(t, assemble.Spec{}, testCluster{slo: hourTTFT}, Options{
		Speedup: 50000,
		// RetryRatio is effectively zero (no fresh traffic in this test
		// deposits anyway), so the burst allows exactly retryBurst retries.
		Overload: &OverloadOptions{RetryRatio: 1e-9},
	})
	defer gw.Shutdown(context.Background())

	for i := 0; i < retryBurst; i++ {
		if ok, _, reason, _ := gw.admitRequest("", names[0], workload.PriorityNormal, 1, i+1); !ok {
			t.Fatalf("retry %d rejected within budget: %q", i+1, reason)
		}
		gw.releaseAdmission(names[0], workload.PriorityNormal)
	}
	ok, code, reason, _ := gw.admitRequest("", names[0], workload.PriorityNormal, 1, retryBurst+1)
	if ok || code != http.StatusServiceUnavailable || reason != "retry_budget" {
		t.Fatalf("exhausted budget: ok=%v code=%d reason=%q", ok, code, reason)
	}

	// Fresh traffic is unaffected and keeps depositing.
	if ok, _, reason, _ := gw.admitRequest("", names[0], workload.PriorityNormal, 1, 0); !ok {
		t.Fatalf("fresh request rejected after budget exhaustion: %q", reason)
	}
	gw.releaseAdmission(names[0], workload.PriorityNormal)

	// The X-Retry-Attempt header routes HTTP requests onto the same path.
	r := httptest.NewRequest(http.MethodPost, "/v1/completions",
		strings.NewReader(`{"model":"`+names[0]+`","input_tokens":1,"max_tokens":1}`))
	r.Header.Set("X-Retry-Attempt", "7")
	w := httptest.NewRecorder()
	gw.Handler().ServeHTTP(w, r)
	if w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), "retry_budget") {
		t.Fatalf("HTTP retry with empty budget: status %d body %q", w.Code, w.Body.String())
	}
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
// schema: controller snapshot, live estimator inputs, retry budget, and the
// preseeded rejection counters. Without overload control the path is a 404.
func TestDebugOverloadEndpoint(t *testing.T) {
	gw, names := newGateway(t, assemble.Spec{}, testCluster{slo: hourTTFT}, Options{
		Speedup:  50000,
		Overload: &OverloadOptions{},
	})
	defer gw.Shutdown(context.Background())
	h := gw.Handler()

	// One admitted request so the estimator has live state.
	if ok, _, reason, _ := gw.admitRequest("", names[0], workload.PriorityNormal, 1, 0); !ok {
		t.Fatalf("seed admission failed: %q", reason)
	}

	w := get(h, "/debug/overload")
	if w.Code != http.StatusOK {
		t.Fatalf("/debug/overload: status %d: %s", w.Code, w.Body.String())
	}
	var resp struct {
		Controller overload.Snapshot  `json:"controller"`
		Estimator  map[string]float64 `json:"estimator"`
		Budget     map[string]float64 `json:"retry_budget"`
		Rejected   map[string]uint64  `json:"rejected"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode: %v\n%s", err, w.Body.String())
	}
	if resp.Controller.Level != "normal" {
		t.Fatalf("controller level = %q, want normal", resp.Controller.Level)
	}
	for _, key := range []string{"queue_depth", "throughput_tok_per_s", "switch_cost_s", "group_size", "ttft_target_s", "est_ttft_150tok_s"} {
		if _, ok := resp.Estimator[key]; !ok {
			t.Errorf("estimator missing %q", key)
		}
	}
	if resp.Estimator["queue_depth"] != 1 {
		t.Errorf("queue_depth = %v, want 1", resp.Estimator["queue_depth"])
	}
	if resp.Estimator["est_ttft_150tok_s"] <= 0 {
		t.Errorf("estimate = %v, want > 0", resp.Estimator["est_ttft_150tok_s"])
	}
	if resp.Budget["burst"] <= 0 || resp.Budget["tokens"] <= 0 {
		t.Errorf("retry budget not initialized: %v", resp.Budget)
	}
	for _, reason := range overloadReasons {
		if _, ok := resp.Rejected[reason]; !ok {
			t.Errorf("rejected map missing preseeded reason %q", reason)
		}
	}

	gw.releaseAdmission(names[0], workload.PriorityNormal)

	assertGated404(t, "overload control disabled (no overload options configured)", "/debug/overload")
}

// TestMetricsOverloadExposition is the exposition-format regression gate for
// the overload families: each declares HELP and TYPE, counters end in
// _total, every rejection reason renders as a zero-initialized series, and
// none of the families appear when overload control is off.
func TestMetricsOverloadExposition(t *testing.T) {
	gw, _ := newGateway(t, assemble.Spec{}, testCluster{slo: hourTTFT}, Options{
		Speedup:  50000,
		Overload: &OverloadOptions{},
	})
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
