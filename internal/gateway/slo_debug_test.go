package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"aegaeon/internal/assemble"
	"aegaeon/internal/slomon"
)

// driveSLOTraffic pushes enough streamed completions through the gateway to
// populate the monitor for every model.
func driveSLOTraffic(t *testing.T, h http.Handler, names []string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		w := postCompletion(h, fmt.Sprintf(
			`{"model":%q,"input_tokens":8,"max_tokens":3,"stream":true}`, names[i%len(names)]))
		if w.Code != http.StatusOK {
			t.Fatalf("completion %d: status %d", i, w.Code)
		}
	}
}

// TestDebugSLOSnapshot reads the full /debug/slo snapshot back after live
// traffic and holds it to the schema invariants (cause counters summing to
// the missed-token count, windowed/cumulative consistency).
func TestDebugSLOSnapshot(t *testing.T) {
	gw, names := newGateway(t, assemble.Spec{SLOMonitor: true}, testCluster{}, Options{Speedup: 50000})
	defer gw.Shutdown(context.Background())
	h := gw.Handler()
	driveSLOTraffic(t, h, names, 4)

	w := get(h, "/debug/slo")
	if w.Code != http.StatusOK {
		t.Fatalf("/debug/slo: status %d: %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("Content-Type = %q", ct)
	}
	var snap slomon.Snapshot
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if err := snap.Validate(); err != nil {
		t.Fatalf("snapshot invalid: %v\n%s", err, w.Body.String())
	}
	if snap.SchemaVersion != slomon.SchemaVersion {
		t.Fatalf("schema = %d, want %d", snap.SchemaVersion, slomon.SchemaVersion)
	}
	if len(snap.Models) != len(names) {
		t.Fatalf("snapshot has %d models, want %d", len(snap.Models), len(names))
	}
	if snap.Fleet.TokensMet+snap.Fleet.TokensMissed == 0 {
		t.Fatal("fleet scope judged no tokens after live traffic")
	}

	// Method contract: the SLO surface is read-only.
	req := httptest.NewRequest(http.MethodPost, "/debug/slo", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /debug/slo: status %d, want 405", rec.Code)
	}
}

// TestDebugSLOAlerts checks the condensed alert view: fleet scope first,
// one entry per model, burn rates keyed by window name.
func TestDebugSLOAlerts(t *testing.T) {
	gw, names := newGateway(t, assemble.Spec{SLOMonitor: true}, testCluster{}, Options{Speedup: 50000})
	defer gw.Shutdown(context.Background())
	h := gw.Handler()
	driveSLOTraffic(t, h, names, 4)

	w := get(h, "/debug/slo/alerts")
	if w.Code != http.StatusOK {
		t.Fatalf("/debug/slo/alerts: status %d: %s", w.Code, w.Body.String())
	}
	var resp struct {
		NowS      float64 `json:"now_s"`
		Objective float64 `json:"objective"`
		Alerts    []struct {
			Scope  string             `json:"scope"`
			State  string             `json:"state"`
			Burn   map[string]float64 `json:"burn"`
			Budget float64            `json:"error_budget_remaining"`
		} `json:"alerts"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Objective != 0.99 {
		t.Fatalf("objective = %v, want 0.99", resp.Objective)
	}
	if len(resp.Alerts) != 1+len(names) {
		t.Fatalf("alerts = %d entries, want fleet + %d models", len(resp.Alerts), len(names))
	}
	if resp.Alerts[0].Scope != "fleet" {
		t.Fatalf("first alert scope = %q, want fleet", resp.Alerts[0].Scope)
	}
	for _, a := range resp.Alerts {
		if a.State != "ok" && a.State != "warn" && a.State != "page" {
			t.Fatalf("scope %s has alert state %q", a.Scope, a.State)
		}
		for _, win := range []string{"fast", "mid", "slow"} {
			if _, ok := a.Burn[win]; !ok {
				t.Fatalf("scope %s missing burn rate for %s window", a.Scope, win)
			}
		}
	}
}

// TestDebugSLOStream drives the SSE endpoint with a cancellable request and
// checks that well-formed snapshot frames come back.
func TestDebugSLOStream(t *testing.T) {
	gw, names := newGateway(t, assemble.Spec{SLOMonitor: true}, testCluster{}, Options{Speedup: 50000})
	defer gw.Shutdown(context.Background())
	h := gw.Handler()
	driveSLOTraffic(t, h, names, 2)

	if w := get(h, "/debug/slo/stream?refresh=1ms"); w.Code != http.StatusBadRequest {
		t.Fatalf("sub-100ms refresh: status %d, want 400", w.Code)
	}
	if w := get(h, "/debug/slo/stream?refresh=bogus"); w.Code != http.StatusBadRequest {
		t.Fatalf("malformed refresh: status %d, want 400", w.Code)
	}

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodGet, "/debug/slo/stream?refresh=100ms", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(rec, req)
	}()
	time.Sleep(250 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("stream handler did not return after context cancellation")
	}

	if ct := rec.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	frames := 0
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		frames++
		var snap slomon.Snapshot
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &snap); err != nil {
			t.Fatalf("frame %d not a snapshot: %v", frames, err)
		}
		if err := snap.Validate(); err != nil {
			t.Fatalf("frame %d invalid: %v", frames, err)
		}
	}
	if frames < 2 {
		t.Fatalf("got %d SSE frames in 250ms at refresh=100ms, want >= 2", frames)
	}
}

// TestDebugDash checks the dashboard page is served and self-refreshing.
func TestDebugDash(t *testing.T) {
	gw, _ := newGateway(t, assemble.Spec{SLOMonitor: true}, testCluster{}, Options{Speedup: 50000})
	defer gw.Shutdown(context.Background())
	w := get(gw.Handler(), "/debug/dash")
	if w.Code != http.StatusOK {
		t.Fatalf("/debug/dash: status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("Content-Type = %q", ct)
	}
	body := w.Body.String()
	for _, want := range []string{"<!doctype html>", "EventSource", "/debug/slo/stream"} {
		if !strings.Contains(body, want) {
			t.Fatalf("dashboard missing %q", want)
		}
	}
}

// TestMetricsSLOExposition extends the exposition regression gate to the SLO
// families: every aegaeon_slo_* sample belongs to a declared family with both
// HELP and TYPE lines, counters end in _total, and per-model series render in
// stable sorted model order.
func TestMetricsSLOExposition(t *testing.T) {
	gw, names := newGateway(t, assemble.Spec{SLOMonitor: true}, testCluster{}, Options{Speedup: 50000})
	defer gw.Shutdown(context.Background())
	h := gw.Handler()
	driveSLOTraffic(t, h, names, 4)

	w := get(h, "/metrics")
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
			f := strings.Fields(line)
			if len(f) < 4 {
				t.Fatalf("HELP line %q has no text", line)
			}
			helps[f[2]] = true
		}
	}

	// Every SLO sample line must belong to a declared family. SLO families
	// are plain gauges/counters, so the sample name is the family name.
	perModelAtt := []string{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") || !strings.HasPrefix(line, "aegaeon_slo") {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		if types[name] == "" {
			t.Errorf("sample %q has no TYPE declaration", name)
		}
		if !helps[name] {
			t.Errorf("sample %q has no HELP line", name)
		}
		if types[name] == "counter" && !strings.HasSuffix(name, "_total") {
			t.Errorf("SLO counter %q does not end in _total", name)
		}
		if strings.HasPrefix(line, `aegaeon_slo_attainment{model="`) {
			rest := strings.TrimPrefix(line, `aegaeon_slo_attainment{model="`)
			perModelAtt = append(perModelAtt, rest[:strings.Index(rest, `"`)])
		}
	}

	for _, fam := range []string{
		"aegaeon_slo_objective",
		"aegaeon_slo_fleet_attainment",
		"aegaeon_slo_fleet_burn_rate",
		"aegaeon_slo_fleet_alert_state",
		"aegaeon_slo_fleet_error_budget_remaining",
		"aegaeon_slo_fleet_goodput_tokens_per_second",
		"aegaeon_slo_fleet_tokens_total",
		"aegaeon_slo_fleet_ttft_p99_seconds",
		"aegaeon_slo_fleet_tbt_p99_seconds",
		"aegaeon_slo_attainment",
		"aegaeon_slo_burn_rate",
		"aegaeon_slo_alert_state",
		"aegaeon_slo_error_budget_remaining",
		"aegaeon_slo_goodput_tokens_per_second",
		"aegaeon_slo_tokens_total",
		"aegaeon_slo_ttft_p99_seconds",
		"aegaeon_slo_tbt_p99_seconds",
	} {
		if types[fam] == "" {
			t.Errorf("family %q absent from exposition", fam)
		}
	}

	// Each window renders once per model, so the label sequence is the sorted
	// model list repeated in blocks of three windows.
	if len(perModelAtt) != 3*len(names) {
		t.Fatalf("per-model attainment series = %d, want %d", len(perModelAtt), 3*len(names))
	}
	seen := map[string]bool{}
	var order []string
	for _, m := range perModelAtt {
		if !seen[m] {
			seen[m] = true
			order = append(order, m)
		}
	}
	if !sort.StringsAreSorted(order) {
		t.Errorf("per-model series not in sorted model order: %v", order)
	}
	if len(order) != len(names) {
		t.Errorf("per-model series cover %d models, want %d", len(order), len(names))
	}
}
