package cluster

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"aegaeon/internal/decision"
	"aegaeon/internal/latency"
	"aegaeon/internal/model"
	"aegaeon/internal/sim"
	"aegaeon/internal/slo"
	"aegaeon/internal/workload"
)

func testCluster(t *testing.T) (*Cluster, *sim.Engine, []*model.Model, []*model.Model) {
	t.Helper()
	return testClusterWith(t, nil)
}

// testClusterWith builds testCluster's two deployments, journaling their
// decisions into dec (nil for none).
func testClusterWith(t *testing.T, dec *decision.Journal) (*Cluster, *sim.Engine, []*model.Model, []*model.Model) {
	t.Helper()
	small := model.SmallMix(4)
	large := model.LargeMix(2)
	se := sim.NewEngine(1)
	c, err := New(se, Config{
		Prof: latency.H800(),
		SLO:  slo.Default(),
		Deployments: []DeploymentConfig{
			{Name: "tp1", TP: 1, NumPrefill: 1, NumDecode: 2, Models: small},
			{Name: "tp4", TP: 4, NumPrefill: 1, NumDecode: 1, Models: large},
		},
		Decisions: dec,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, se, small, large
}

func TestMixedParallelismRouting(t *testing.T) {
	c, se, small, large := testCluster(t)
	rng := rand.New(rand.NewSource(1))
	traces := workload.Merge(
		workload.PoissonTrace(rng, []string{small[0].Name, small[1].Name}, 0.1, 60*time.Second, workload.ShareGPT()),
		workload.PoissonTrace(rng, []string{large[0].Name}, 0.05, 60*time.Second, workload.ShareGPT()),
	)
	if err := c.Submit(traces); err != nil {
		t.Fatal(err)
	}
	se.Run()
	c.Finalize(se.Now())
	if c.Completed() != len(traces) {
		t.Fatalf("completed %d/%d", c.Completed(), len(traces))
	}
	if att := c.Attainment(); att < 0.9 {
		t.Fatalf("cluster attainment = %.3f", att)
	}
	// Routing metadata was recorded for every request.
	if got := len(c.Store().Keys("req/")); got != len(traces) {
		t.Fatalf("metadata for %d of %d requests", got, len(traces))
	}
	// Route table maps every model to its deployment.
	if v, ok := c.Store().GetNow("route/" + large[0].Name); !ok || v != "tp4" {
		t.Fatalf("route for %s = (%q,%v)", large[0].Name, v, ok)
	}
}

// A trace with an unserved model is rejected whole: the good request before
// it is neither queued nor recorded.
func TestUnknownModelRejected(t *testing.T) {
	c, se, small, _ := testCluster(t)
	pending := se.Pending()
	err := c.Submit([]workload.Request{
		{ID: "good", Model: small[0].Name, InputTokens: 16, OutputTokens: 4},
		{ID: "bad", Model: "ghost", InputTokens: 16, OutputTokens: 4},
	})
	if err == nil {
		t.Fatal("unknown model accepted")
	}
	if se.Pending() != pending {
		t.Fatalf("rejected Submit queued %d events", se.Pending()-pending)
	}
	se.Run()
	c.Finalize(se.Now())
	if n := len(c.Store().Keys("req/")); n != 0 || c.Completed() != 0 {
		t.Fatalf("rejected Submit recorded %d routes and completed %d requests", n, c.Completed())
	}
}

// Same-instant arrivals on different deployments tie-break the same way on
// every run, so the decision journal is byte-identical.
func TestSubmitTiedArrivalsDeterministic(t *testing.T) {
	export := func() []byte {
		dec := decision.New(decision.Options{})
		c, se, small, large := testClusterWith(t, dec)
		var trace []workload.Request
		for k := 0; k < 6; k++ {
			at := time.Duration(k) * 300 * time.Millisecond
			trace = append(trace,
				workload.Request{ID: fmt.Sprintf("s%d", k), Model: small[k%len(small)].Name, Arrival: at, InputTokens: 256, OutputTokens: 8},
				workload.Request{ID: fmt.Sprintf("l%d", k), Model: large[k%len(large)].Name, Arrival: at, InputTokens: 256, OutputTokens: 8})
		}
		if err := c.Submit(trace); err != nil {
			t.Fatal(err)
		}
		se.Run()
		var buf bytes.Buffer
		if err := dec.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := export()
	for run := 1; run < 20; run++ {
		if got := export(); !bytes.Equal(got, want) {
			t.Fatalf("run %d: decision journal differs from run 0", run)
		}
	}
}

func TestDuplicateModelAcrossDeployments(t *testing.T) {
	small := model.SmallMix(2)
	se := sim.NewEngine(1)
	_, err := New(se, Config{
		Prof: latency.H800(),
		SLO:  slo.Default(),
		Deployments: []DeploymentConfig{
			{Name: "a", TP: 1, NumPrefill: 1, NumDecode: 1, Models: small},
			{Name: "b", TP: 1, NumPrefill: 1, NumDecode: 1, Models: small[:1]},
		},
	})
	if err == nil {
		t.Fatal("duplicate model placement accepted")
	}
}

func TestEmptyClusterRejected(t *testing.T) {
	if _, err := New(sim.NewEngine(1), Config{Prof: latency.H800(), SLO: slo.Default()}); err == nil {
		t.Fatal("empty cluster accepted")
	}
}

func TestDeploymentGPUs(t *testing.T) {
	c, _, _, _ := testCluster(t)
	for _, d := range c.Deployments() {
		var cfgs = map[string]DeploymentConfig{
			"tp1": {TP: 1, NumPrefill: 1, NumDecode: 2},
			"tp4": {TP: 4, NumPrefill: 1, NumDecode: 1},
		}
		cfg := cfgs[d.Name]
		want := (cfg.NumPrefill + cfg.NumDecode) * cfg.TP
		if got := len(d.System.Engines()) * d.TP; got != want {
			t.Fatalf("%s GPUs = %d, want %d", d.Name, got, want)
		}
	}
}

// StoreSeed has no effect: two clusters that differ only in it journal the
// same decisions for the same trace. The field stays until its last caller,
// bench/perf/gateway.go, stops setting it.
func TestStoreSeedHasNoEffect(t *testing.T) {
	export := func(seed int64) []byte {
		dec := decision.New(decision.Options{})
		se := sim.NewEngine(1)
		models := model.SmallMix(2)
		c, err := New(se, Config{
			Prof: latency.H800(),
			SLO:  slo.Default(),
			Deployments: []DeploymentConfig{
				{Name: "tp1", TP: 1, NumPrefill: 1, NumDecode: 1, Models: models},
			},
			Decisions: dec,
			StoreSeed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		trace := workload.PoissonTrace(rng, []string{models[0].Name, models[1].Name}, 0.2, 30*time.Second, workload.ShareGPT())
		if err := c.Submit(trace); err != nil {
			t.Fatal(err)
		}
		se.Run()
		var buf bytes.Buffer
		if err := dec.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(export(1), export(2)) {
		t.Fatal("clusters differing only in StoreSeed journaled different decisions")
	}
}
