package core

import (
	"math/rand"
	"testing"
	"time"

	"aegaeon/internal/engine"
	"aegaeon/internal/market"
	"aegaeon/internal/model"
	"aegaeon/internal/sim"
	"aegaeon/internal/workload"
)

// spotFixture builds a spot-market system on a deterministic trace. The
// trace is identical across aware/naive runs so lost-KV comparisons are
// apples to apples.
func spotFixture(t *testing.T, classSpec string, aware bool) (*System, *sim.Engine, []workload.Request, *market.Market) {
	t.Helper()
	models := model.SmallMix(6)
	var names []string
	for _, m := range models {
		names = append(names, m.Name)
	}
	rng := rand.New(rand.NewSource(9))
	// Heavy enough that decode instances are mid-turn (GPU-resident KV) at
	// any instant a reclaim might land.
	trace := workload.PoissonTrace(rng, names, 0.4, 120*time.Second, workload.ShareGPT())
	se := sim.NewEngine(1)
	classes, err := market.ParseClasses(classSpec)
	if err != nil {
		t.Fatal(err)
	}
	mkt := market.New(se, nil, market.Config{Classes: classes, Spot: true, Aware: aware, Seed: 1})
	cfg := testConfig(models, engine.AllOptimizations(), 1, 3)
	cfg.Market = mkt
	sys := NewSystem(se, cfg)
	if err := sys.Submit(trace); err != nil {
		t.Fatal(err)
	}
	return sys, se, trace, mkt
}

func TestReclaimAwareEvacuation(t *testing.T) {
	sys, se, trace, mkt := spotFixture(t, "H800", true)
	se.At(45*time.Second, func() {
		if err := sys.ReclaimInstance("decode1", 5*time.Second); err != nil {
			t.Error(err)
		}
	})
	se.Run()
	sys.Finalize(se.Now())

	if n := aliveInstances(sys, "decode"); n != 2 {
		t.Fatalf("alive decode instances = %d", n)
	}
	if sys.Completed() != len(trace) {
		t.Fatalf("completed %d/%d after reclaim", sys.Completed(), len(trace))
	}
	// Exactly the right token counts: evacuation re-homing must never
	// double-decode a request that moved instances.
	for _, r := range sys.Requests() {
		if r.Generated() != r.OutputTokens {
			t.Fatalf("request %s has %d tokens, want %d", r.ID, r.Generated(), r.OutputTokens)
		}
	}
	st := mkt.Stats()
	if st.Preemptions != 1 || st.Revocations != 1 {
		t.Fatalf("preemptions=%d revocations=%d, want 1/1", st.Preemptions, st.Revocations)
	}
	// The 5s grace dwarfs the PCIe offload time of a decode batch, so the
	// drain must land everything: bytes evacuated, nothing lost.
	if st.EvacuatedKVBytes == 0 {
		t.Fatal("aware reclaim evacuated zero KV bytes — was decode1 idle at t=45s?")
	}
	if st.LostKVBytes != 0 {
		t.Fatalf("aware reclaim lost %d KV bytes despite a 5s grace", st.LostKVBytes)
	}
	recs := mkt.Records()
	if len(recs) != 1 {
		t.Fatalf("%d preemption records", len(recs))
	}
	if recs[0].Device != "decode1" || recs[0].RevokedAtS != 50 {
		t.Fatalf("record = %+v", recs[0])
	}
}

func TestReclaimNaiveLosesKV(t *testing.T) {
	runArm := func(aware bool) (lost, evac int64, completed int) {
		sys, se, trace, mkt := spotFixture(t, "H800", aware)
		se.At(45*time.Second, func() {
			if err := sys.ReclaimInstance("decode1", 5*time.Second); err != nil {
				t.Error(err)
			}
		})
		se.Run()
		sys.Finalize(se.Now())
		if sys.Completed() != len(trace) {
			t.Fatalf("aware=%v completed %d/%d", aware, sys.Completed(), len(trace))
		}
		st := mkt.Stats()
		return st.LostKVBytes, st.EvacuatedKVBytes, sys.Completed()
	}
	naiveLost, naiveEvac, _ := runArm(false)
	awareLost, awareEvac, _ := runArm(true)
	if naiveEvac != 0 {
		t.Fatalf("naive arm evacuated %d bytes — naive mode must take no advance action", naiveEvac)
	}
	if naiveLost == 0 {
		t.Fatal("naive reclaim lost zero KV bytes — instance idle, test proves nothing")
	}
	if awareLost >= naiveLost {
		t.Fatalf("aware lost %d >= naive lost %d", awareLost, naiveLost)
	}
	if awareEvac == 0 {
		t.Fatal("aware arm evacuated nothing")
	}
}

func TestReclaimUnknownAndDoubleNotice(t *testing.T) {
	sys, se, _, _ := spotFixture(t, "H800", true)
	se.At(10*time.Second, func() {
		if err := sys.ReclaimInstance("nope", time.Second); err == nil {
			t.Error("reclaim of unknown instance succeeded")
		}
		if err := sys.ReclaimInstance("decode0", 5*time.Second); err != nil {
			t.Error(err)
		}
		if err := sys.ReclaimInstance("decode0", 5*time.Second); err == nil {
			t.Error("double notice succeeded")
		}
	})
	se.Run()
}

// marketDevice returns the named device's state in a market snapshot.
func marketDevice(mkt *market.Market, now sim.Time, name string) market.DeviceState {
	for _, d := range mkt.Snapshot(now, nil).Devices {
		if d.Device == name {
			return d
		}
	}
	return market.DeviceState{}
}

func TestThrottleInstanceSlowsAndClears(t *testing.T) {
	sys, se, trace, mkt := spotFixture(t, "H800", true)
	se.At(20*time.Second, func() {
		if err := sys.ThrottleInstance("decode0", 4.0, 30*time.Second); err != nil {
			t.Error(err)
		}
		if f := marketDevice(mkt, se.Now(), "decode0").ThrottleFactor; f != 4.0 {
			t.Errorf("throttle factor = %v during window", f)
		}
	})
	se.At(55*time.Second, func() {
		if f := marketDevice(mkt, se.Now(), "decode0").ThrottleFactor; f != 0 {
			t.Errorf("throttle factor = %v after window", f)
		}
	})
	se.Run()
	sys.Finalize(se.Now())
	if sys.Completed() != len(trace) {
		t.Fatalf("completed %d/%d under throttle", sys.Completed(), len(trace))
	}
}

// Heterogeneous classes: each instance registers for its round-robin class,
// runs that class's hardware profile, and gets a VRAM split sized for it.
func TestHeterogeneousClassGeometry(t *testing.T) {
	sys, se, trace, mkt := spotFixture(t, "H800,A10", true)
	classes := map[string]string{}
	for _, name := range sys.InstanceNames() {
		classes[name] = marketDevice(mkt, se.Now(), name).Class
	}
	// Round-robin over pool-build order: prefill0, decode0, decode1, decode2.
	want := map[string]string{"prefill0": "H800", "decode0": "A10", "decode1": "H800", "decode2": "A10"}
	for n, cls := range want {
		if classes[n] != cls {
			t.Fatalf("instance %s class = %s, want %s (all: %v)", n, classes[n], cls, classes)
		}
	}
	// The A10 instances must run a smaller GPU KV pool than the H800s.
	var h800KV, a10KV int64
	for _, e := range sys.Engines() {
		cap := e.KV().GPUCache.Pool().Capacity()
		switch classes[e.Name] {
		case "H800":
			h800KV = cap
		case "A10":
			a10KV = cap
		}
	}
	if a10KV <= 0 || h800KV <= 0 || a10KV >= h800KV {
		t.Fatalf("KV pool capacities: A10=%d H800=%d, want 0 < A10 < H800", a10KV, h800KV)
	}
	se.Run()
	sys.Finalize(se.Now())
	if sys.Completed() != len(trace) {
		t.Fatalf("completed %d/%d on heterogeneous pool", sys.Completed(), len(trace))
	}
}
