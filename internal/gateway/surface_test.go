package gateway

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"aegaeon/internal/assemble"
	"aegaeon/internal/market"
	"aegaeon/internal/metastore"
)

// surfaceGolden pins the sha256 of each operator-surface body. The decision
// endpoints are left out: their edge admission records carry the loop's
// clock when the admission's post lands, which wall-clock timing decides.
// /debug/slo/stream is streaming and /debug/overload is off here.
var surfaceGolden = map[string]string{
	"/metrics":               "0ce8243b65f0cc104094c3083e02ee6cea54e9aabbc694ba401bcfe9e3f23a10",
	"/debug":                 "f3f8720efae2404ddaaf5cc7f89d195f02b795958245633503a302fac30c0cda",
	"/debug/trace":           "edcc458e1e24fde7a8bac87c768dbc647cd391e3a0f7d3fffa77cc7c22023fcf",
	"/debug/requests/cmpl-1": "71b3711b6cf065e687ef056621ae8b452e33b44a92243d04260fb8bcb0bb979b",
	"/debug/gpus":            "fe27043eaf08b228b42ad28859300c2fef81b57c6c49a4fc2f405c21f53a3105",
	"/debug/perfetto":        "61de2b51c71b6876b950fa050f53f5b78d075fbaf0a3a4bf6c94759bb0dcb27a",
	"/debug/slo":             "1b6ec4bddd78b8e57dbd84466ef1098fc2f7fcffd3064ff507b0ab5360725d85",
	"/debug/slo/alerts":      "2c5aa614b77397d947482c01e29851b63a731e49da329f225e64ae799a52e5be",
	"/debug/dash":            "ccee042b97eacbde344efa05ebbf41bbda36e0641d21372e6f3b962c55057655",
	"/debug/prefix":          "fe8c855fba40971aa243456592048aecb4dcf3b5b56a50afbc381450b21faa36",
	"/debug/fleet":           "5bb6c5a9c9c7af41896fa6eaf8bc51344bea8aafa7a57ad88c492929d8a08076",
	"/debug/market":          "021ea123aeb1be9ef25b24e65fcb27450f401708c5fe262e7d83575c509fe13f",
	"/debug/metastore":       "7e6d491d9d4bbaf9adc380aac2b2908124c10559b2945fc5485cdb95493834ac",
}

// TestOperatorSurfaceGolden serves serial completions on an un-paced gateway
// carrying the collector, SLO monitor, journal, fleet ledger, prefix routing
// and a fault runtime, then pins every byte of /metrics and of each
// non-streaming /debug body. Token times depend only on the seed, so the
// digests hold across processes.
func TestOperatorSurfaceGolden(t *testing.T) {
	spec := assemble.Spec{Tracing: true, SLOMonitor: true, Decisions: true,
		FleetAccounting: true, PrefixRouting: true}
	gw, names := newGateway(t, spec, testCluster{faultSeed: 1, accelerate: true}, Options{Speedup: 1})
	defer gw.Shutdown(context.Background())
	h := gw.Handler()
	for i, m := range names {
		runSession(t, h, m, fmt.Sprintf("sess-%d", i), 3, 64*(i+1))
	}
	for path, want := range surfaceGolden {
		w := get(h, path)
		sum := sha256.Sum256(w.Body.Bytes())
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s (status %d): digest %s, want %s", path, w.Code, got, want)
		}
	}
}

// marketFamiliesGolden and storeFamiliesGolden are the sha256 of the
// families TestMarketFamiliesGolden and TestStoreFamiliesGolden render.
const (
	marketFamiliesGolden = "50e15598a76aa6634072a371c5ded55bdf93f4064a2c580f15fbb00cc7d43615"
	storeFamiliesGolden  = "37422afbaae36e9842e28829527fa201065231ef965d175c62ab6f5de7cf3bbd"
)

// goldenMarket is a fixed two-class spot-market snapshot.
func goldenMarket() *market.Snapshot {
	return &market.Snapshot{
		Spot: true, Aware: true,
		Devices: []market.DeviceState{
			{Device: "gpu0", Class: "H800", RateDollarsPerHour: 2.5, Eligible: true, CapabilityScore: 1},
			{Device: "gpu1", Class: "A10", RateDollarsPerHour: 0.75, UnderNotice: true, CapabilityScore: 0.25},
		},
		Classes: []market.ClassEconomics{
			{Class: "A10", Devices: 1, MeanRate: 0.75, CostDollars: 0.125, DollarsPer1KTokens: 0.5, Preemptions: 1},
			{Class: "H800", Devices: 1, MeanRate: 2.5, CostDollars: 1.5, DollarsPer1KTokens: 0.25},
		},
		Stats: market.Stats{Preemptions: 1, Revocations: 1, EvacuatedKVBytes: 1 << 20, LostKVBytes: 4096,
			RehomedPrefixBytes: 512, Throttles: 2, PriceTicks: 7},
	}
}

// assertFamiliesDigest renders families into a fresh builder and compares
// the sha256 of the text with want.
func assertFamiliesDigest(t *testing.T, want string, families func(b *strings.Builder)) {
	t.Helper()
	b := &strings.Builder{}
	families(b)
	sum := sha256.Sum256([]byte(b.String()))
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("families digest %s, want %s\n%s", got, want, b.String())
	}
}

// TestMarketFamiliesGolden pins the market family writer on a fixed
// snapshot. The surface golden's gateway runs no market: with one on, the
// un-paced engine never goes idle.
func TestMarketFamiliesGolden(t *testing.T) {
	assertFamiliesDigest(t, marketFamiliesGolden, func(b *strings.Builder) {
		writeMarketMetrics(b, goldenMarket())
	})
}

// TestStoreFamiliesGolden pins the metadata store's families on a fixed
// single-store view.
func TestStoreFamiliesGolden(t *testing.T) {
	store := metastore.ControlView{
		SchemaVersion: 1, Mode: "single",
		Gets: 11, Sets: 8, Deletes: 3, FailedOps: 1, Watches: 2, Available: true,
	}
	assertFamiliesDigest(t, storeFamiliesGolden, func(b *strings.Builder) {
		writeStoreMetrics(b, store)
	})
}

// assertGated404 asks a gateway with no optional subsystem for each path and
// wants the 404 JSON error carrying msg, which names what is missing.
func assertGated404(t *testing.T, msg string, paths ...string) {
	t.Helper()
	gw, _ := newTestGateway(t, Options{Speedup: 50000})
	defer gw.Shutdown(context.Background())
	h := gw.Handler()
	for _, path := range paths {
		w := get(h, path)
		var body struct {
			Error struct {
				Message string `json:"message"`
				Code    int    `json:"code"`
			} `json:"error"`
		}
		err := json.Unmarshal(w.Body.Bytes(), &body)
		if w.Code != http.StatusNotFound || err != nil || body.Error.Message != msg || body.Error.Code != http.StatusNotFound {
			t.Errorf("%s: status %d body %q, want 404 with message %q", path, w.Code, w.Body.String(), msg)
		}
	}
}

func TestDebugEndpointsWithoutCollector(t *testing.T) {
	assertGated404(t, "observability disabled (no collector configured)",
		"/debug/trace", "/debug/requests/x", "/debug/gpus", "/debug/perfetto")
}

func TestDebugSLOEndpointsWithoutMonitor(t *testing.T) {
	assertGated404(t, "SLO monitoring disabled (no monitor configured)",
		"/debug/slo", "/debug/slo/alerts", "/debug/slo/stream", "/debug/dash")
}

func TestDebugPrefix404WithoutCache(t *testing.T) {
	assertGated404(t, "prefix cache disabled (no deployment configured with one)", "/debug/prefix")
}

func TestDebugFleet404WithoutLedger(t *testing.T) {
	assertGated404(t, "fleet accounting disabled (cluster built without a fleet ledger)", "/debug/fleet")
}

func TestDebugMarket404WithoutMarket(t *testing.T) {
	assertGated404(t, "spot market disabled (cluster built without a market model)", "/debug/market")
}

func TestDebugDecisions404WithoutJournal(t *testing.T) {
	assertGated404(t, "decision journal disabled (no journal configured)", "/debug/decisions", "/debug/why/cmpl-1")
}

// TestMetricsHoldAcrossShutdown scrapes /metrics before and after a drain:
// once the driver stops, every surface serves the final loop snapshot, so
// no counter falls and no family disappears, and /debug/prefix keeps
// answering.
func TestMetricsHoldAcrossShutdown(t *testing.T) {
	gw, names := newGateway(t, assemble.Spec{PrefixRouting: true}, testCluster{faultSeed: 1}, Options{Speedup: 50000})
	h := gw.Handler()
	runSession(t, h, names[0], "sess-drain", 3, 128)
	before := scrape(t, h)
	// Scrapers race the drain and the stop, so some reads run on the event
	// loop and the rest on their own goroutines after it exits.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				for _, path := range []string{"/metrics", "/debug/prefix", "/debug/metastore"} {
					if w := get(h, path); w.Code != http.StatusOK {
						t.Errorf("%s during drain: status %d", path, w.Code)
					}
				}
			}
		}()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := gw.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	after := scrape(t, h)
	for name, typ := range before.types {
		if after.types[name] != typ {
			t.Errorf("family %s (%s) missing after shutdown", name, typ)
		}
	}
	for series, v := range before.values {
		name, _, _ := strings.Cut(series, "{")
		if before.types[name] != "counter" {
			continue
		}
		if got, ok := after.values[series]; !ok || got < v {
			t.Errorf("counter %s: %g before shutdown, %g (present %v) after", series, v, got, ok)
		}
	}
	if w := get(h, "/debug/prefix"); w.Code != http.StatusOK {
		t.Errorf("/debug/prefix after shutdown: status %d: %s", w.Code, w.Body.String())
	}
}

// exposition is one parsed /metrics scrape.
type exposition struct {
	types  map[string]string  // family name -> declared type
	values map[string]float64 // series (name and labels) -> value
}

func scrape(t *testing.T, h http.Handler) exposition {
	t.Helper()
	w := get(h, "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", w.Code)
	}
	e := exposition{types: map[string]string{}, values: map[string]float64{}}
	for _, line := range strings.Split(strings.TrimSpace(w.Body.String()), "\n") {
		if f := strings.Fields(line); strings.HasPrefix(line, "# TYPE ") && len(f) == 4 {
			e.types[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad sample %q: %v", line, err)
		}
		e.values[line[:i]] = v
	}
	return e
}
