package gateway

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aegaeon/internal/assemble"
)

// TestLiveSurfaceRace is the live path's race test. A paced gateway with
// every observer, prefix routing, overload control and a spot market serves
// streamed completions, and the token bucket turns half the clients away at
// the edge, while scrapers GET every /debug route and /metrics. The event
// loop is the only writer of what those routes read, so under -race a
// handler that reads it off the loop fails here. Once the driver stops, the
// brownout loop exits and the routes keep serving, read on the scrapers'
// own goroutines.
func TestLiveSurfaceRace(t *testing.T) {
	spec := assemble.Spec{Tracing: true, SLOMonitor: true, Overload: true, Decisions: true,
		FleetAccounting: true, PrefixRouting: true, Market: true, MarketSpot: true, Seed: 1}
	gw, names := newGateway(t, spec, testCluster{faultSeed: 1},
		Options{Speedup: 100, Burst: 8, RatePerSec: 1e-3})
	h := gw.Handler()

	var paths []string
	for _, ep := range gw.debugEndpoints() {
		paths = append(paths, strings.Replace(ep.Path, "{id}", "cmpl-1", 1))
	}
	paths = append(paths, "/debug", "/metrics")
	scrapeAll := func() {
		for _, path := range paths {
			if path == "/debug/slo/stream" {
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil).WithContext(ctx))
				cancel()
				if !strings.HasPrefix(w.Body.String(), "data: {") {
					t.Errorf("%s: no snapshot streamed: %q", path, w.Body.String())
				}
				continue
			}
			// cmpl-1 may not have been admitted yet, or at all.
			w := get(h, path)
			if w.Code != http.StatusOK && !(strings.HasSuffix(path, "cmpl-1") && w.Code == http.StatusNotFound) {
				t.Errorf("%s: status %d: %s", path, w.Code, w.Body.String())
			}
		}
	}

	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for range 3 {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					scrapeAll()
				}
			}
		}()
	}

	const clients = 16
	var served, rejected atomic.Int32
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := postCompletion(h, fmt.Sprintf(`{"model":%q,"input_tokens":%d,"max_tokens":8,"stream":true,"session_id":"s%d"}`,
				names[i%len(names)], 64*(1+i%3), i%4))
			switch w.Code {
			case http.StatusOK:
				if idx, done := parseStream(t, w.Body); len(idx) != 8 || !done {
					t.Errorf("stream delivered %d of 8 tokens, done %v", len(idx), done)
				}
				served.Add(1)
			case http.StatusTooManyRequests:
				rejected.Add(1)
			default:
				t.Errorf("completion: status %d: %s", w.Code, w.Body.String())
			}
		}()
	}
	wg.Wait()
	close(stop)
	scrapers.Wait()
	if served.Load() == 0 || rejected.Load() == 0 {
		t.Fatalf("%d served, %d rejected: want both", served.Load(), rejected.Load())
	}

	loops := brownoutLoops()
	if loops == 0 {
		t.Fatal("no brownout loop is running")
	}
	gw.drv.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for brownoutLoops() >= loops {
		if time.Now().After(deadline) {
			t.Fatal("the brownout loop outlived its stopped driver")
		}
		time.Sleep(10 * time.Millisecond)
	}
	var after sync.WaitGroup
	for range 3 {
		after.Add(1)
		go func() {
			defer after.Done()
			scrapeAll()
		}()
	}
	after.Wait()
}

// brownoutLoops counts the goroutines running a gateway's brownout loop.
func brownoutLoops() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "gateway.(*Gateway).brownoutLoop(")
		}
		buf = make([]byte, 2*len(buf))
	}
}
