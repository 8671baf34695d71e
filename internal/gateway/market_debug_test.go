package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"aegaeon/internal/assemble"
	"aegaeon/internal/market"
	"aegaeon/internal/model"
)

// marketSpec is a spot-priced heterogeneous pool; its A10 instances need a
// model mix that fits 24 GB, such as SmallMix.
var marketSpec = assemble.Spec{Market: true, MarketClasses: "H800,A10", MarketSpot: true, Seed: 1}

// TestDebugMarketEndpoint serves completions on a heterogeneous spot pool and
// checks the /debug/market JSON: one entry per device with its round-robin
// class, every device eligible (no faults injected), and class economics
// joined against the fleet ledger's cost integral.
func TestDebugMarketEndpoint(t *testing.T) {
	gw, names := newGateway(t, marketSpec, testCluster{models: model.SmallMix(4)}, Options{Speedup: 50000})
	defer gw.Shutdown(context.Background())
	h := gw.Handler()

	for i := 0; i < 3; i++ {
		body := fmt.Sprintf(`{"model":%q,"input_tokens":128,"max_tokens":4}`, names[i%2])
		if w := postCompletion(h, body); w.Code != http.StatusOK {
			t.Fatalf("completion %d: status %d: %s", i, w.Code, w.Body.String())
		}
	}

	req := httptest.NewRequest(http.MethodGet, "/debug/market", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("/debug/market: status %d: %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("Content-Type = %q", ct)
	}
	var snap market.Snapshot
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if snap.SchemaVersion != market.SchemaVersion {
		t.Errorf("schema_version = %d, want %d", snap.SchemaVersion, market.SchemaVersion)
	}
	if !snap.Spot || !snap.Aware {
		t.Errorf("spot=%v aware=%v", snap.Spot, snap.Aware)
	}
	if len(snap.Devices) != 4 {
		t.Fatalf("got %d devices, want 4 (2 prefill + 2 decode)", len(snap.Devices))
	}
	classes := map[string]int{}
	for _, d := range snap.Devices {
		classes[d.Class]++
		if !d.Eligible {
			t.Errorf("device %s ineligible with no faults injected", d.Device)
		}
		if d.RateDollarsPerHour <= 0 {
			t.Errorf("device %s rate %v", d.Device, d.RateDollarsPerHour)
		}
	}
	if classes["H800"] != 2 || classes["A10"] != 2 {
		t.Fatalf("class layout %v, want 2 H800 + 2 A10", classes)
	}
	if len(snap.Classes) != 2 {
		t.Fatalf("%d class rollups", len(snap.Classes))
	}
	for _, c := range snap.Classes {
		if c.CostDollars <= 0 {
			t.Errorf("class %s: no cost integral joined from the fleet ledger", c.Class)
		}
	}
}

// TestMetricsMarketExposition is the exposition regression test for the
// aegaeon_market_* families: each carries # HELP and # TYPE with the right
// type, per-device series carry device and class labels, and the KV-outcome
// counter enumerates all three outcomes.
func TestMetricsMarketExposition(t *testing.T) {
	gw, names := newGateway(t, marketSpec, testCluster{models: model.SmallMix(4)}, Options{Speedup: 50000})
	defer gw.Shutdown(context.Background())
	h := gw.Handler()

	body0 := fmt.Sprintf(`{"model":%q,"input_tokens":128,"max_tokens":4}`, names[0])
	if w := postCompletion(h, body0); w.Code != http.StatusOK {
		t.Fatalf("completion: status %d: %s", w.Code, w.Body.String())
	}

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", w.Code)
	}
	body := w.Body.String()

	families := map[string]string{
		"aegaeon_market_spot":                             "gauge",
		"aegaeon_market_aware":                            "gauge",
		"aegaeon_market_device_rate_dollars_per_hour":     "gauge",
		"aegaeon_market_device_eligible":                  "gauge",
		"aegaeon_market_device_under_notice":              "gauge",
		"aegaeon_market_device_capability_score":          "gauge",
		"aegaeon_market_preemptions_total":                "counter",
		"aegaeon_market_revocations_total":                "counter",
		"aegaeon_market_deadlines_missed_total":           "counter",
		"aegaeon_market_kv_bytes_total":                   "counter",
		"aegaeon_market_throttles_total":                  "counter",
		"aegaeon_market_price_ticks_total":                "counter",
		"aegaeon_market_class_devices":                    "gauge",
		"aegaeon_market_class_mean_rate_dollars_per_hour": "gauge",
		"aegaeon_market_class_cost_dollars_total":         "counter",
		"aegaeon_market_class_dollars_per_1k_tokens":      "gauge",
		"aegaeon_market_class_preemptions_total":          "counter",
	}
	for fam, typ := range families {
		if !strings.Contains(body, "# HELP "+fam+" ") {
			t.Errorf("missing # HELP for %s", fam)
		}
		if !strings.Contains(body, "# TYPE "+fam+" "+typ+"\n") {
			t.Errorf("missing # TYPE %s %s", fam, typ)
		}
	}
	for _, outcome := range []string{"evacuated", "lost", "rehomed_prefix"} {
		if !strings.Contains(body, fmt.Sprintf("aegaeon_market_kv_bytes_total{outcome=%q}", outcome)) {
			t.Errorf("missing kv_bytes outcome %q", outcome)
		}
	}
	// Per-device series must carry both device and class labels.
	if !strings.Contains(body, `aegaeon_market_device_eligible{device="prefill0",class="H800"} 1`) {
		t.Error("missing eligible series for prefill0/H800")
	}
	if !strings.Contains(body, `aegaeon_market_device_eligible{device="prefill1",class="A10"} 1`) {
		t.Error("missing eligible series for prefill1/A10")
	}
}
