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
	"aegaeon/internal/prefixcache"
)

// runSession posts n sequential non-streamed turns of one conversation, each
// re-sending the grown context (the accumulating-context pattern the cache
// exploits). Turn k's prompt is a strict prefix of turn k+1's.
func runSession(t *testing.T, h http.Handler, model, session string, turns, baseTok int) {
	t.Helper()
	for turn := 0; turn < turns; turn++ {
		body := fmt.Sprintf(`{"model":%q,"input_tokens":%d,"max_tokens":4,"session_id":%q,"turn":%d}`,
			model, baseTok*(turn+1), session, turn)
		w := postCompletion(h, body)
		if w.Code != http.StatusOK {
			t.Fatalf("turn %d of %s: status %d: %s", turn, session, w.Code, w.Body.String())
		}
	}
}

// TestDebugPrefixEndpoint drives a multi-turn session and checks the
// /debug/prefix JSON reports the reuse: lookups counted, hits and tokens
// saved strictly positive, and refcounts quiesced (no pins between requests).
func TestDebugPrefixEndpoint(t *testing.T) {
	gw, names := newGateway(t, assemble.Spec{PrefixRouting: true}, testCluster{}, Options{Speedup: 50000})
	defer gw.Shutdown(context.Background())
	h := gw.Handler()

	runSession(t, h, names[0], "sess-debug", 3, 128)

	req := httptest.NewRequest(http.MethodGet, "/debug/prefix", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("/debug/prefix: status %d: %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("Content-Type = %q", ct)
	}
	var resp struct {
		Deployments []struct {
			Deployment string  `json:"deployment"`
			HitRatio   float64 `json:"hit_ratio"`
			prefixcache.Stats
		} `json:"deployments"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(resp.Deployments) != 1 {
		t.Fatalf("got %d deployments, want 1", len(resp.Deployments))
	}
	d := resp.Deployments[0]
	if d.Deployment != "live" {
		t.Errorf("deployment = %q", d.Deployment)
	}
	if d.Lookups < 3 {
		t.Errorf("lookups = %d, want >= 3 (one per turn)", d.Lookups)
	}
	if d.Hits == 0 {
		t.Error("no hits after re-sending a grown session context")
	}
	if d.TokensSaved == 0 {
		t.Error("no tokens saved despite hits")
	}
	if d.PinnedEntries != 0 {
		t.Errorf("pinned_entries = %d between requests, want 0", d.PinnedEntries)
	}
	if d.HitRatio <= 0 || d.HitRatio > 1 {
		t.Errorf("hit_ratio = %g out of range", d.HitRatio)
	}
	ms, ok := d.PerModel[names[0]]
	if !ok {
		t.Fatalf("per_model missing %q: %v", names[0], d.PerModel)
	}
	if ms.Hits == 0 || ms.TokensSaved == 0 {
		t.Errorf("per-model stats for %q = %+v, want hits and saved > 0", names[0], ms)
	}
}

// TestMetricsPrefixExposition is the exposition regression test for the
// aegaeon_prefix_* families: each carries # HELP and # TYPE, per-model series
// appear in sorted model order, and the tiered families carry both tier
// labels. A cache-free gateway must not emit the families at all.
func TestMetricsPrefixExposition(t *testing.T) {
	gw, names := newGateway(t, assemble.Spec{PrefixRouting: true}, testCluster{}, Options{Speedup: 50000})
	defer gw.Shutdown(context.Background())
	h := gw.Handler()

	// Two sessions on two models so per-model series ordering is observable.
	runSession(t, h, names[0], "sess-m0", 2, 128)
	runSession(t, h, names[1], "sess-m1", 2, 128)

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", w.Code)
	}
	body := w.Body.String()

	for _, fam := range []string{
		"aegaeon_prefix_lookups_total",
		"aegaeon_prefix_hits_total",
		"aegaeon_prefix_tokens_saved_total",
		"aegaeon_prefix_inserts_total",
		"aegaeon_prefix_evictions_total",
		"aegaeon_prefix_promotions_total",
		"aegaeon_prefix_bytes",
		"aegaeon_prefix_entries",
		"aegaeon_prefix_pinned_entries",
	} {
		if !strings.Contains(body, "# HELP "+fam+" ") {
			t.Errorf("missing # HELP for %s", fam)
		}
		if !strings.Contains(body, "# TYPE "+fam+" ") {
			t.Errorf("missing # TYPE for %s", fam)
		}
	}
	for _, line := range []string{
		`aegaeon_prefix_bytes{tier="device"}`,
		`aegaeon_prefix_bytes{tier="host"}`,
		`aegaeon_prefix_evictions_total{tier="device"}`,
		`aegaeon_prefix_evictions_total{tier="host"}`,
	} {
		if !strings.Contains(body, line) {
			t.Errorf("missing series %s", line)
		}
	}

	// Per-model series sorted by model label within each family.
	for _, fam := range []string{
		"aegaeon_prefix_lookups_total", "aegaeon_prefix_hits_total", "aegaeon_prefix_tokens_saved_total",
	} {
		var models []string
		for _, line := range strings.Split(body, "\n") {
			if strings.HasPrefix(line, fam+`{model="`) {
				rest := strings.TrimPrefix(line, fam+`{model="`)
				if i := strings.Index(rest, `"`); i >= 0 {
					models = append(models, rest[:i])
				}
			}
		}
		if len(models) < 2 {
			t.Errorf("%s: want >= 2 per-model series, got %v", fam, models)
			continue
		}
		for i := 1; i < len(models); i++ {
			if models[i] < models[i-1] {
				t.Errorf("%s series out of order: %v", fam, models)
				break
			}
		}
	}

	// Hits for the exercised models must be nonzero in the exposition.
	for _, m := range names[:2] {
		found := false
		for _, line := range strings.Split(body, "\n") {
			if strings.HasPrefix(line, fmt.Sprintf(`aegaeon_prefix_hits_total{model=%q} `, m)) &&
				!strings.HasSuffix(line, " 0") {
				found = true
			}
		}
		if !found {
			t.Errorf("no nonzero aegaeon_prefix_hits_total series for %q", m)
		}
	}
}

// TestMetricsNoPrefixFamiliesWithoutCache: the families are gated on the
// cache being configured, keeping the cache-free exposition byte-stable.
func TestMetricsNoPrefixFamiliesWithoutCache(t *testing.T) {
	gw, _ := newTestGateway(t, Options{Speedup: 50000})
	defer gw.Shutdown(context.Background())
	h := gw.Handler()

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if strings.Contains(w.Body.String(), "aegaeon_prefix_") {
		t.Error("aegaeon_prefix_* families emitted without a prefix cache")
	}
}
