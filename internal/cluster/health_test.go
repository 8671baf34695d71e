package cluster

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"aegaeon/internal/fault"
	"aegaeon/internal/latency"
	"aegaeon/internal/model"
	"aegaeon/internal/sim"
	"aegaeon/internal/slo"
	"aegaeon/internal/workload"
)

func healthCluster(t *testing.T, se *sim.Engine, f *fault.Faults) (*Cluster, []*model.Model) {
	t.Helper()
	small := model.SmallMix(4)
	c, err := New(se, Config{
		Prof:   latency.H800(),
		SLO:    slo.Default(),
		Faults: f,
		Deployments: []DeploymentConfig{
			{Name: "tp1", TP: 1, NumPrefill: 1, NumDecode: 2, Models: small},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, small
}

// The proxy detects a crashed instance via its expired lease and fails over:
// orphans recover after roughly LeaseTTL + HealthPoll, and every request
// still completes.
func TestLeaseExpiryTriggersFailover(t *testing.T) {
	se := sim.NewEngine(1)
	f := fault.New(se, 7)
	c, small := healthCluster(t, se, f)
	var names []string
	for _, m := range small {
		names = append(names, m.Name)
	}
	rng := rand.New(rand.NewSource(3))
	trace := workload.PoissonTrace(rng, names, 0.1, 120*time.Second, workload.ShareGPT())
	if err := c.Submit(trace); err != nil {
		t.Fatal(err)
	}
	se.At(0, c.StartHealth)
	crashAt := 45 * time.Second
	se.At(crashAt, func() {
		if err := c.Crash("tp1/decode1"); err != nil {
			t.Error(err)
		}
	})
	se.At(crashAt+500*time.Millisecond, func() {
		// Detection delay: well inside the lease TTL, nothing has noticed yet.
		if c.Failovers() != 0 {
			t.Error("failover before the lease could expire")
		}
	})
	se.At(crashAt+10*time.Second, func() {
		// Lease TTL (3s) + poll (1s) + store RTTs: well detected by now.
		if c.Failovers() != 1 {
			t.Errorf("failovers = %d within 10s of the crash", c.Failovers())
		}
	})
	se.At(300*time.Second, c.StopHealth)
	se.Run()
	c.Finalize(se.Now())
	if c.Completed() != len(trace) {
		t.Fatalf("completed %d/%d after failover", c.Completed(), len(trace))
	}
	st := c.FaultStats()
	if st.Crashes != 1 || st.Recoveries != 1 {
		t.Fatalf("crashes=%d recoveries=%d", st.Crashes, st.Recoveries)
	}
	if st.Resumed+st.Recomputed == 0 {
		t.Fatal("failover recovered no requests — decode1 was idle at t=45s?")
	}
	// The failover claim is in the store.
	if v, ok := c.Store().GetNow("failover/tp1/decode1"); !ok || v != "proxy" {
		t.Fatalf("failover key = (%q, %v)", v, ok)
	}
}

// A healthy instance whose lease lapses because the store is partitioned is
// NOT failed over: the liveness check guards against false failovers.
func TestPartitionDoesNotFalseFailover(t *testing.T) {
	se := sim.NewEngine(1)
	f := fault.New(se, 7)
	c, small := healthCluster(t, se, f)
	var names []string
	for _, m := range small {
		names = append(names, m.Name)
	}
	rng := rand.New(rand.NewSource(4))
	trace := workload.PoissonTrace(rng, names, 0.1, 60*time.Second, workload.ShareGPT())
	if err := c.Submit(trace); err != nil {
		t.Fatal(err)
	}
	se.At(0, c.StartHealth)
	// Partition the store long enough for every lease to expire.
	se.At(10*time.Second, func() {
		if err := c.PartitionStore(8 * time.Second); err != nil {
			t.Error(err)
		}
	})
	se.At(120*time.Second, c.StopHealth)
	se.Run()
	c.Finalize(se.Now())
	if c.Failovers() != 0 {
		t.Fatalf("false failovers: %d", c.Failovers())
	}
	if c.Completed() != len(trace) {
		t.Fatalf("completed %d/%d through the partition", c.Completed(), len(trace))
	}
	st := c.FaultStats()
	if st.StoreFailures == 0 {
		t.Fatal("no store failures recorded during an 8s partition")
	}
	if st.StoreRetries == 0 {
		t.Fatal("lease renewal never retried through the partition")
	}
}

// The injector drives the cluster's Surface end to end: a scheduled crash
// plus a transfer-fault window inject cleanly and the workload survives.
func TestInjectorDrivesClusterSurface(t *testing.T) {
	se := sim.NewEngine(1)
	f := fault.New(se, 7)
	c, small := healthCluster(t, se, f)
	var names []string
	for _, m := range small {
		names = append(names, m.Name)
	}
	rng := rand.New(rand.NewSource(5))
	trace := workload.PoissonTrace(rng, names, 0.08, 90*time.Second, workload.ShareGPT())
	if err := c.Submit(trace); err != nil {
		t.Fatal(err)
	}
	sched, err := fault.ParseSpec("crash@30s:tp1/decode0,xfer@40s+2s:decode1,storeslow@50s+5s*10")
	if err != nil {
		t.Fatal(err)
	}
	in := fault.NewInjector(se, c, f, sched)
	in.Arm()
	se.At(0, c.StartHealth)
	se.At(240*time.Second, c.StopHealth)
	se.Run()
	c.Finalize(se.Now())
	if in.Injected() != 3 {
		t.Fatalf("injected %d/3 faults, errs=%v", in.Injected(), in.Errors())
	}
	if c.Failovers() != 1 {
		t.Fatalf("failovers = %d", c.Failovers())
	}
	if c.Completed() != len(trace) {
		t.Fatalf("completed %d/%d under injected faults", c.Completed(), len(trace))
	}
}

// Without StartHealth the cluster schedules no recurring events: Run
// terminates exactly as before (regression guard for batch simulations).
func TestHealthIsOptIn(t *testing.T) {
	se := sim.NewEngine(1)
	c, small := healthCluster(t, se, nil)
	if err := c.Submit([]workload.Request{{
		ID: "r0", Model: small[0].Name, InputTokens: 100, OutputTokens: 10,
	}}); err != nil {
		t.Fatal(err)
	}
	se.Run() // would never return if health loops were unconditionally armed
	if c.Completed() != 1 {
		t.Fatalf("completed %d/1", c.Completed())
	}
	if got := len(c.Store().Keys("lease/")); got != 0 {
		t.Fatalf("%d leases written without StartHealth", got)
	}
}

// A route write submitted inside a store partition is dropped and retried
// until it lands, so the watch-fed route mirror still converges to the
// routing table.
func TestRouteMirrorConverges(t *testing.T) {
	se := sim.NewEngine(1)
	c, small := healthCluster(t, se, fault.New(se, 7))
	se.Run() // the routes New wrote land
	var landed []sim.Time
	c.Store().Watch("route/"+small[0].Name, func(string, string) { landed = append(landed, se.Now()) })
	end := se.Now() + 2*time.Second
	c.Store().Partition(2 * time.Second)
	c.putRoute(small[0].Name, "tp1", 0)
	se.Run()
	if len(landed) != 1 || landed[0] < end {
		t.Fatalf("route write landed at %v, want once after the partition ends at %v", landed, end)
	}
	routes, mirror := c.Routes(), c.RouteMirror()
	if len(routes) != len(small) || !reflect.DeepEqual(routes, mirror) {
		t.Fatalf("mirror %v, routes %v", mirror, routes)
	}
}
