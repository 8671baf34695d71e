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
	"aegaeon/internal/fleetobs"
)

// TestDebugFleetEndpoint serves a few completions and checks the
// /debug/fleet JSON: one entry per device, the conservation invariant clean
// at the snapshot instant, work visible in the busy integrals and goodput
// tokens, and the heatmap segment timeline populated.
func TestDebugFleetEndpoint(t *testing.T) {
	gw, names := newGateway(t, assemble.Spec{FleetAccounting: true}, testCluster{}, Options{Speedup: 50000})
	defer gw.Shutdown(context.Background())
	h := gw.Handler()

	for i := 0; i < 3; i++ {
		body := fmt.Sprintf(`{"model":%q,"input_tokens":128,"max_tokens":4}`, names[i%2])
		if w := postCompletion(h, body); w.Code != http.StatusOK {
			t.Fatalf("completion %d: status %d: %s", i, w.Code, w.Body.String())
		}
	}

	req := httptest.NewRequest(http.MethodGet, "/debug/fleet", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("/debug/fleet: status %d: %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("Content-Type = %q", ct)
	}
	var snap fleetobs.Snapshot
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if snap.SchemaVersion != fleetobs.SchemaVersion {
		t.Errorf("schema_version = %d, want %d", snap.SchemaVersion, fleetobs.SchemaVersion)
	}
	if len(snap.Devices) != 4 {
		t.Fatalf("got %d devices, want 4 (2 prefill + 2 decode)", len(snap.Devices))
	}
	if len(snap.ConservationErrors) > 0 {
		t.Fatalf("conservation violated: %v", snap.ConservationErrors)
	}
	if err := snap.Validate(); err != nil {
		t.Fatalf("snapshot fails its own validation: %v", err)
	}
	if snap.Fleet.BusyS <= 0 {
		t.Error("no busy time after serving completions")
	}
	if snap.Fleet.Tokens == 0 {
		t.Error("no goodput tokens after serving completions")
	}
	segs := 0
	for _, d := range snap.Devices {
		segs += len(d.Segments)
	}
	if segs == 0 {
		t.Error("no heatmap segments after serving completions")
	}
	if len(snap.Models) == 0 {
		t.Error("no per-model goodput entries")
	}
}

// TestMetricsFleetExposition is the exposition regression test for the
// aegaeon_fleet_* families: each carries # HELP and # TYPE, _total families
// are typed counter, per-device series appear in sorted device order with
// the full state label set, and the conservation gauge reads zero.
func TestMetricsFleetExposition(t *testing.T) {
	gw, names := newGateway(t, assemble.Spec{FleetAccounting: true}, testCluster{}, Options{Speedup: 50000})
	defer gw.Shutdown(context.Background())
	h := gw.Handler()

	for i := 0; i < 3; i++ {
		body := fmt.Sprintf(`{"model":%q,"input_tokens":128,"max_tokens":4}`, names[i%2])
		if w := postCompletion(h, body); w.Code != http.StatusOK {
			t.Fatalf("completion %d: status %d: %s", i, w.Code, w.Body.String())
		}
	}

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", w.Code)
	}
	body := w.Body.String()

	families := map[string]string{
		"aegaeon_fleet_state_seconds_total":          "counter",
		"aegaeon_fleet_gpu_seconds_total":            "counter",
		"aegaeon_fleet_goodput_tokens_total":         "counter",
		"aegaeon_fleet_model_tokens_total":           "counter",
		"aegaeon_fleet_model_compute_seconds_total":  "counter",
		"aegaeon_fleet_cost_dollars_total":           "counter",
		"aegaeon_fleet_busy_fraction":                "gauge",
		"aegaeon_fleet_switch_overhead_ratio":        "gauge",
		"aegaeon_fleet_tokens_per_busy_gpu_second":   "gauge",
		"aegaeon_fleet_device_busy_fraction":         "gauge",
		"aegaeon_fleet_device_switch_overhead_ratio": "gauge",
		"aegaeon_fleet_device_faulted":               "gauge",
		"aegaeon_fleet_kv_bytes":                     "gauge",
		"aegaeon_fleet_model_occupancy_share":        "gauge",
		"aegaeon_fleet_model_tokens_per_gpu_second":  "gauge",
		"aegaeon_fleet_gpu_hours":                    "gauge",
		"aegaeon_fleet_conservation_errors":          "gauge",
	}
	for fam, typ := range families {
		if !strings.Contains(body, "# HELP "+fam+" ") {
			t.Errorf("missing # HELP for %s", fam)
		}
		if !strings.Contains(body, "# TYPE "+fam+" "+typ+"\n") {
			t.Errorf("missing # TYPE %s %s", fam, typ)
		}
	}

	// Per-device series in sorted device order, and every state label
	// present for every device (the exhaustive partition is the contract).
	var devices []string
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, `aegaeon_fleet_device_busy_fraction{device="`) {
			rest := strings.TrimPrefix(line, `aegaeon_fleet_device_busy_fraction{device="`)
			if i := strings.Index(rest, `"`); i >= 0 {
				devices = append(devices, rest[:i])
			}
		}
	}
	if len(devices) != 4 {
		t.Fatalf("got device series %v, want 4", devices)
	}
	for i := 1; i < len(devices); i++ {
		if devices[i] < devices[i-1] {
			t.Fatalf("device series out of order: %v", devices)
		}
	}
	for _, dev := range devices {
		for _, st := range fleetobs.States() {
			series := fmt.Sprintf("aegaeon_fleet_state_seconds_total{device=%q,state=%q}", dev, st.String())
			if !strings.Contains(body, series+" ") {
				t.Errorf("missing series %s", series)
			}
		}
		for _, kind := range []string{"capacity", "peak", "used"} {
			series := fmt.Sprintf("aegaeon_fleet_kv_bytes{device=%q,kind=%q}", dev, kind)
			if !strings.Contains(body, series+" ") {
				t.Errorf("missing series %s", series)
			}
		}
	}
	if !strings.Contains(body, "aegaeon_fleet_conservation_errors 0\n") {
		t.Error("conservation gauge missing or nonzero")
	}
}

// TestMetricsNoFleetFamiliesWithoutLedger: the families are gated on the
// ledger being configured, keeping the accounting-free exposition byte-stable.
func TestMetricsNoFleetFamiliesWithoutLedger(t *testing.T) {
	gw, _ := newTestGateway(t, Options{Speedup: 50000})
	defer gw.Shutdown(context.Background())
	h := gw.Handler()

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if strings.Contains(w.Body.String(), "aegaeon_fleet_") {
		t.Error("aegaeon_fleet_* families emitted without a fleet ledger")
	}
}
