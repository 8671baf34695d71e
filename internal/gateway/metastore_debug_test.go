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
	"aegaeon/internal/metastore"
)

// /debug/metastore on a single-store gateway reports mode "single" (the
// endpoint is always live — there is always a metadata store).
func TestDebugMetastoreSingleMode(t *testing.T) {
	gw, _ := newTestGateway(t, Options{Speedup: 50000})
	defer gw.Shutdown(context.Background())
	h := gw.Handler()

	req := httptest.NewRequest(http.MethodGet, "/debug/metastore", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("/debug/metastore: status %d: %s", w.Code, w.Body.String())
	}
	var view metastore.ControlView
	if err := json.Unmarshal(w.Body.Bytes(), &view); err != nil {
		t.Fatal(err)
	}
	if view.Mode != "single" || len(view.Replicas) != 0 {
		t.Fatalf("single-store view = %+v", view)
	}
}

// /debug/metastore on a replicated gateway reports the quorum group: three
// replicas, a leader, and per-replica applied indexes that advance as the
// cluster writes routes and serves traffic.
func TestDebugMetastoreReplicated(t *testing.T) {
	gw, names := newGateway(t, assemble.Spec{}, testCluster{storeReplicas: 3}, Options{Speedup: 50000})
	defer gw.Shutdown(context.Background())
	h := gw.Handler()

	body := fmt.Sprintf(`{"model":%q,"input_tokens":128,"max_tokens":4}`, names[0])
	if w := postCompletion(h, body); w.Code != http.StatusOK {
		t.Fatalf("completion: status %d: %s", w.Code, w.Body.String())
	}

	req := httptest.NewRequest(http.MethodGet, "/debug/metastore", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("/debug/metastore: status %d: %s", w.Code, w.Body.String())
	}
	var view metastore.ControlView
	if err := json.Unmarshal(w.Body.Bytes(), &view); err != nil {
		t.Fatal(err)
	}
	if view.Mode != "replicated" || len(view.Replicas) != 3 {
		t.Fatalf("replicated view = %+v", view)
	}
	if view.Leader == "" || view.Term == 0 {
		t.Fatalf("no leader in view: %+v", view)
	}
	if view.CommitIndex == 0 {
		t.Fatal("commit index still 0 after route writes")
	}
	up := 0
	for _, rv := range view.Replicas {
		if rv.Up {
			up++
		}
	}
	if up != 3 {
		t.Fatalf("%d/3 replicas up", up)
	}
}

// The replicated metric families appear on /metrics exactly when the store
// is replicated, alongside the existing op counters.
func TestMetricsReplicatedFamilies(t *testing.T) {
	gw, names := newGateway(t, assemble.Spec{}, testCluster{storeReplicas: 3}, Options{Speedup: 50000})
	defer gw.Shutdown(context.Background())
	h := gw.Handler()

	body := fmt.Sprintf(`{"model":%q,"input_tokens":128,"max_tokens":4}`, names[0])
	if w := postCompletion(h, body); w.Code != http.StatusOK {
		t.Fatalf("completion: status %d: %s", w.Code, w.Body.String())
	}

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", w.Code)
	}
	text := w.Body.String()
	for _, want := range []string{
		"aegaeon_metastore_term ",
		"aegaeon_metastore_leader_changes_total ",
		"aegaeon_metastore_commit_index ",
		`aegaeon_metastore_replica_up{replica="ms0"} 1`,
		`aegaeon_metastore_replica_up{replica="ms1"} 1`,
		`aegaeon_metastore_replica_up{replica="ms2"} 1`,
		`aegaeon_metastore_replica_applied_index{replica="ms0"}`,
		"aegaeon_metastore_ops_total{op=\"set\"}",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// A single-store gateway must NOT emit the replicated families.
func TestMetricsNoReplicatedFamiliesOnSingleStore(t *testing.T) {
	gw, _ := newTestGateway(t, Options{Speedup: 50000})
	defer gw.Shutdown(context.Background())
	h := gw.Handler()

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", w.Code)
	}
	if strings.Contains(w.Body.String(), "aegaeon_metastore_term") {
		t.Error("replicated families emitted for a single store")
	}
}
