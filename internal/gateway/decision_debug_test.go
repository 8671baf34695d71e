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
	"aegaeon/internal/decision"
)

// TestDebugWhyEndpoint serves a completion and checks the live why-trace:
// the chain is queryable under the request's completion ID, starts with the
// gateway's admission verdict, ends with the core's terminal record, and is
// joined against the request's span timeline.
func TestDebugWhyEndpoint(t *testing.T) {
	gw, names := newGateway(t, assemble.Spec{Tracing: true, Decisions: true}, testCluster{}, Options{Speedup: 50000})
	defer gw.Shutdown(context.Background())
	h := gw.Handler()

	body := fmt.Sprintf(`{"model":%q,"input_tokens":64,"max_tokens":4}`, names[0])
	if w := postCompletion(h, body); w.Code != http.StatusOK {
		t.Fatalf("completion: status %d: %s", w.Code, w.Body.String())
	}

	req := httptest.NewRequest(http.MethodGet, "/debug/why/cmpl-1", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("/debug/why/cmpl-1: status %d: %s", w.Code, w.Body.String())
	}
	var out struct {
		Request  string            `json:"request"`
		Chain    []decision.Record `json:"chain"`
		Timeline *struct {
			Spans []struct {
				Name string `json:"name"`
			} `json:"spans"`
		} `json:"timeline"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if out.Request != "cmpl-1" {
		t.Fatalf("request = %q, want cmpl-1", out.Request)
	}
	if len(out.Chain) < 2 {
		t.Fatalf("chain has %d records, want admission through terminal", len(out.Chain))
	}
	if out.Chain[0].Kind != decision.KindAdmission {
		t.Errorf("chain head is %s, want admission", out.Chain[0].Kind)
	}
	if out.Chain[0].Reason != "gateway edge admission" {
		t.Errorf("chain head reason = %q, want the gateway verdict first", out.Chain[0].Reason)
	}
	// The edge verdict is stamped from the driver's wall-to-virtual pacing,
	// not a clock snapshot only scrapes refresh: after virtual zero, and no
	// later than the scheduler's first record of the request.
	if head, next := out.Chain[0].At, out.Chain[1].At; head <= 0 || head > next {
		t.Errorf("edge admission at %v, next record at %v: want 0 < head <= next", head, next)
	}
	tail := out.Chain[len(out.Chain)-1]
	if tail.Kind != decision.KindTerminal || tail.Outcome != decision.OutcomeDone {
		t.Errorf("chain tail = %s/%s, want terminal/done", tail.Kind, tail.Outcome)
	}
	if out.Timeline == nil || len(out.Timeline.Spans) == 0 {
		t.Error("why response not joined against the span timeline")
	}

	// Unknown request: 404, not an empty chain.
	req = httptest.NewRequest(http.MethodGet, "/debug/why/nope", nil)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusNotFound {
		t.Fatalf("/debug/why/nope: status %d, want 404", w.Code)
	}
}

// TestDebugDecisionsEndpoint checks the filterable ring view: records are
// present after traffic, the kind filter narrows to exactly that kind, and
// the counters cover every journaled kind.
func TestDebugDecisionsEndpoint(t *testing.T) {
	gw, names := newGateway(t, assemble.Spec{Tracing: true, Decisions: true}, testCluster{}, Options{Speedup: 50000})
	defer gw.Shutdown(context.Background())
	h := gw.Handler()

	for i := 0; i < 3; i++ {
		body := fmt.Sprintf(`{"model":%q,"input_tokens":64,"max_tokens":4}`, names[i%2])
		if w := postCompletion(h, body); w.Code != http.StatusOK {
			t.Fatalf("completion %d: status %d: %s", i, w.Code, w.Body.String())
		}
	}

	get := func(url string) (int, struct {
		Total   uint64            `json:"total"`
		Tracked int               `json:"tracked_requests"`
		Records []decision.Record `json:"records"`
		Counts  []struct {
			Kind    string `json:"kind"`
			Outcome string `json:"outcome"`
			N       uint64 `json:"n"`
		} `json:"counts"`
	}) {
		req := httptest.NewRequest(http.MethodGet, url, nil)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		var out struct {
			Total   uint64            `json:"total"`
			Tracked int               `json:"tracked_requests"`
			Records []decision.Record `json:"records"`
			Counts  []struct {
				Kind    string `json:"kind"`
				Outcome string `json:"outcome"`
				N       uint64 `json:"n"`
			} `json:"counts"`
		}
		if w.Code == http.StatusOK {
			if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
				t.Fatalf("%s: bad JSON: %v", url, err)
			}
		}
		return w.Code, out
	}

	code, all := get("/debug/decisions")
	if code != http.StatusOK {
		t.Fatalf("/debug/decisions: status %d", code)
	}
	if all.Total == 0 || len(all.Records) == 0 {
		t.Fatalf("no decisions journaled after traffic (total %d)", all.Total)
	}
	if all.Tracked < 3 {
		t.Errorf("tracked_requests = %d, want >= 3", all.Tracked)
	}
	kinds := map[string]bool{}
	for _, c := range all.Counts {
		kinds[c.Kind] = true
	}
	for _, want := range []string{decision.KindAdmission, decision.KindPrefillRouting,
		decision.KindDecodePlacement, decision.KindTerminal} {
		if !kinds[want] {
			t.Errorf("counts missing kind %q", want)
		}
	}

	code, filtered := get("/debug/decisions?kind=admission&last=2")
	if code != http.StatusOK {
		t.Fatalf("filtered: status %d", code)
	}
	if len(filtered.Records) == 0 || len(filtered.Records) > 2 {
		t.Fatalf("kind+last filter returned %d records, want 1..2", len(filtered.Records))
	}
	for _, r := range filtered.Records {
		if r.Kind != decision.KindAdmission {
			t.Errorf("filtered record has kind %s, want admission", r.Kind)
		}
	}

	if code, _ := get("/debug/decisions?last=zero"); code != http.StatusBadRequest {
		t.Fatalf("bad last: status %d, want 400", code)
	}
}

// TestMetricsDecisionExposition is the exposition regression test for the
// aegaeon_decision_* families: each carries # HELP and # TYPE, the per-kind
// counter series appear with kind then outcome labels in sorted order, and
// the tracked-requests gauge is live.
func TestMetricsDecisionExposition(t *testing.T) {
	gw, names := newGateway(t, assemble.Spec{Tracing: true, Decisions: true}, testCluster{}, Options{Speedup: 50000})
	defer gw.Shutdown(context.Background())
	h := gw.Handler()

	for i := 0; i < 3; i++ {
		body := fmt.Sprintf(`{"model":%q,"input_tokens":64,"max_tokens":4}`, names[i%2])
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
		"aegaeon_decision_records_total":    "counter",
		"aegaeon_decision_journaled_total":  "counter",
		"aegaeon_decision_tracked_requests": "gauge",
	}
	for fam, typ := range families {
		if !strings.Contains(body, "# HELP "+fam+" ") {
			t.Errorf("missing # HELP for %s", fam)
		}
		if !strings.Contains(body, "# TYPE "+fam+" "+typ+"\n") {
			t.Errorf("missing # TYPE %s %s", fam, typ)
		}
	}
	if !strings.Contains(body, `aegaeon_decision_records_total{kind="admission",outcome="accept"}`) {
		t.Error("missing the admission/accept series")
	}
	if !strings.Contains(body, `aegaeon_decision_records_total{kind="terminal",outcome="done"}`) {
		t.Error("missing the terminal/done series")
	}

	// Label sets in sorted (kind, outcome) order — the scrape-to-scrape
	// determinism contract.
	var labels []string
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "aegaeon_decision_records_total{") {
			labels = append(labels, line[:strings.Index(line, "}")+1])
		}
	}
	if len(labels) < 3 {
		t.Fatalf("got %d labeled series, want several after traffic", len(labels))
	}
	for i := 1; i < len(labels); i++ {
		if labels[i] < labels[i-1] {
			t.Fatalf("series out of sorted order: %q before %q", labels[i-1], labels[i])
		}
	}
}

// TestMetricsNoDecisionFamiliesWithoutJournal: the families are gated on the
// journal being configured, keeping the journal-free exposition byte-stable.
func TestMetricsNoDecisionFamiliesWithoutJournal(t *testing.T) {
	gw, _ := newTestGateway(t, Options{Speedup: 50000})
	defer gw.Shutdown(context.Background())
	h := gw.Handler()

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if strings.Contains(w.Body.String(), "aegaeon_decision_") {
		t.Error("aegaeon_decision_* families emitted without a journal")
	}
}

// TestDebugIndex: GET /debug enumerates every registered debug endpoint with
// a description, the listing covers the full table (decision endpoints
// included, pprof excluded unless mounted), and turning pprof on extends it.
func TestDebugIndex(t *testing.T) {
	gw, _ := newTestGateway(t, Options{Speedup: 50000})
	defer gw.Shutdown(context.Background())
	h := gw.Handler()

	for _, path := range []string{"/debug", "/debug/"} {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, w.Code)
		}
		var out struct {
			Endpoints []struct {
				Path string `json:"path"`
				Desc string `json:"desc"`
			} `json:"endpoints"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
			t.Fatalf("%s: bad JSON: %v", path, err)
		}
		got := map[string]string{}
		for _, ep := range out.Endpoints {
			got[ep.Path] = ep.Desc
		}
		for _, want := range []string{
			"/debug/trace", "/debug/requests/{id}", "/debug/gpus", "/debug/perfetto",
			"/debug/slo", "/debug/slo/alerts", "/debug/slo/stream", "/debug/dash",
			"/debug/overload", "/debug/prefix", "/debug/fleet", "/debug/market",
			"/debug/decisions", "/debug/why/{id}",
		} {
			if got[want] == "" {
				t.Errorf("%s: index missing %s (or it has no description)", path, want)
			}
		}
		for p := range got {
			if strings.HasPrefix(p, "/debug/pprof") {
				t.Errorf("%s: index lists %s without -pprof", path, p)
			}
		}
	}

	gw2, _ := newTestGateway(t, Options{Speedup: 50000, Pprof: true})
	defer gw2.Shutdown(context.Background())
	req := httptest.NewRequest(http.MethodGet, "/debug", nil)
	w := httptest.NewRecorder()
	gw2.Handler().ServeHTTP(w, req)
	if !strings.Contains(w.Body.String(), "/debug/pprof/") {
		t.Error("index does not list pprof endpoints when mounted")
	}
}

// TestDebugNonGET405: every /debug path — the index, gated endpoints whose
// subsystem is missing, and live ones — answers 405 to non-GET methods, so
// the debug surface is uniformly read-only.
func TestDebugNonGET405(t *testing.T) {
	gw, _ := newGateway(t, assemble.Spec{Tracing: true, Decisions: true}, testCluster{}, Options{Speedup: 50000})
	defer gw.Shutdown(context.Background())
	h := gw.Handler()

	paths := []string{
		"/debug", "/debug/", "/debug/trace", "/debug/requests/x", "/debug/gpus",
		"/debug/perfetto", "/debug/slo", "/debug/slo/alerts", "/debug/slo/stream",
		"/debug/dash", "/debug/overload", "/debug/prefix", "/debug/fleet",
		"/debug/market", "/debug/decisions", "/debug/why/x",
	}
	for _, path := range paths {
		for _, method := range []string{http.MethodPost, http.MethodPut, http.MethodDelete} {
			req := httptest.NewRequest(method, path, strings.NewReader("{}"))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusMethodNotAllowed {
				t.Errorf("%s %s: status %d, want 405", method, path, w.Code)
			}
		}
	}
}
