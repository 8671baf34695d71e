package gateway

import (
	"fmt"
	"testing"
	"time"

	"aegaeon/internal/sim"
	"aegaeon/internal/workload"
)

// BenchmarkGatewayAdmission measures the admission-control hot path — the
// per-request cost every live request pays before touching the simulation:
// draining/saturation checks, per-model queue accounting, and the token
// bucket. This is the gateway-side throughput ceiling.
func BenchmarkGatewayAdmission(b *testing.B) {
	gw, names := newTestGateway(b, Options{Speedup: 1e-6, RatePerSec: 1e12, Burst: 1 << 20})
	defer gw.drv.Stop()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := names[i%len(names)]
		ok, code, reason, _ := gw.admitRequest("", m, workload.PriorityNormal, 1, 0)
		if !ok {
			b.Fatalf("admission rejected: %d %s", code, reason)
		}
		gw.releaseAdmission(m)
	}
}

// BenchmarkGatewayAdmissionParallel is the same path under goroutine
// contention, the realistic serving regime.
func BenchmarkGatewayAdmissionParallel(b *testing.B) {
	gw, names := newTestGateway(b, Options{Speedup: 1e-6, RatePerSec: 1e12, Burst: 1 << 20})
	defer gw.drv.Stop()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			m := names[i%len(names)]
			i++
			if ok, _, _, _ := gw.admitRequest("", m, workload.PriorityNormal, 1, 0); ok {
				gw.releaseAdmission(m)
			}
		}
	})
}

var (
	sinkStatus int
	sinkFrame  []byte
)

// BenchmarkGatewayReject measures the shed path: a saturated gateway must
// turn requests away cheaply.
func BenchmarkGatewayReject(b *testing.B) {
	// Two in flight fill it: at one, the cold-model shed threshold (90%
	// occupancy) would already turn the first request away.
	gw, names := newTestGateway(b, Options{Speedup: 1e-6, MaxInFlight: 2})
	defer gw.drv.Stop()
	for range 2 {
		if ok, _, reason, _ := gw.admitRequest("", names[0], workload.PriorityNormal, 1, 0); !ok {
			b.Fatalf("seed admission failed: %s", reason)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, code, _, _ := gw.admitRequest("", names[0], workload.PriorityNormal, 1, 0)
		sinkStatus = code
	}
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
