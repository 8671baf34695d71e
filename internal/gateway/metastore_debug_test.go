package gateway

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

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
	if view.Mode != "single" || !view.Available {
		t.Fatalf("single-store view = %+v", view)
	}
}
