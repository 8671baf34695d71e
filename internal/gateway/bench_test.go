package gateway

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"aegaeon/internal/core"
	"aegaeon/internal/sim"
)

// BenchmarkGatewayAdmission measures the admission-control hot path — the
// edge verdict every live request takes on the event loop before its
// submission: draining/saturation checks, per-model queue accounting, and
// the token bucket. The iterations run inside one Call, so the number is
// the verdict's own cost, not the handoff to the loop.
func BenchmarkGatewayAdmission(b *testing.B) {
	gw, names := newTestGateway(b, Options{Speedup: 1e-6, RatePerSec: 1e12, Burst: 1 << 20})
	defer gw.drv.Stop()
	var rej verdict
	b.ResetTimer()
	_ = gw.drv.Call(func() {
		for i := 0; i < b.N && rej.code == 0; i++ {
			m := names[i%len(names)]
			if v := gw.admitRequest(m, 0); v.ok {
				gw.releaseSlot(m)
			} else {
				rej = v
			}
		}
	})
	if rej.code != 0 {
		b.Fatalf("admission rejected: %d %s", rej.code, rej.reason)
	}
}

var (
	sinkStatus int
	sinkFrame  []byte
)

// BenchmarkGatewayReject measures the shed path: a saturated gateway must
// turn requests away cheaply.
func BenchmarkGatewayReject(b *testing.B) {
	gw, names := newTestGateway(b, Options{Speedup: 1e-6, MaxInFlight: 1})
	defer gw.drv.Stop()
	if ok, _, reason, _ := gw.admit(names[0], 0); !ok {
		b.Fatalf("seed admission failed: %s", reason)
	}
	b.ResetTimer()
	_ = gw.drv.Call(func() {
		for i := 0; i < b.N; i++ {
			sinkStatus = gw.admitRequest(names[0], 0).code
		}
	})
	_ = fmt.Sprint(sinkStatus)
}

// BenchmarkSSEChunk measures encoding one streamed token's SSE frame, the
// per-token cost of the serving edge. A warmed frame allocates nothing.
func BenchmarkSSEChunk(b *testing.B) {
	f := newSSEFrames("cmpl-123456", "Qwen-7B-ft000")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkFrame = f.token(i&4095, sim.Time(i)*7919*time.Microsecond)
	}
}

// BenchmarkStreamCompletion streams a completion whose 64 tokens are all
// buffered when the handler wakes: the SSE path's cost per completion, with
// its flushes (one per HTTP/2 DATA frame on a real connection) per op. The
// body is discarded after each op.
func BenchmarkStreamCompletion(b *testing.B) {
	const n = 64
	g := &Gateway{}
	r := httptest.NewRequest(http.MethodPost, "/v1/completions", nil)
	w := &flushRecorder{ResponseRecorder: httptest.NewRecorder()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Body.Reset()
		f := &feed{id: "cmpl-123456", tokens: make(chan tokenEvent, n), done: make(chan *core.Request, 1)}
		for k := 0; k < n; k++ {
			f.tokens <- tokenEvent{k, sim.Time(k+1) * 7919 * time.Microsecond}
		}
		f.done <- &core.Request{}
		g.streamCompletion(w, r, "Qwen-7B-ft000", f)
	}
	b.ReportMetric(float64(w.flushes)/float64(b.N), "flushes/op")
}
