package core

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"aegaeon/internal/engine"
	"aegaeon/internal/model"
	"aegaeon/internal/sim"
	"aegaeon/internal/workload"
)

func failoverFixture(t *testing.T, nPrefill, nDecode int) (*System, *sim.Engine, []workload.Request) {
	t.Helper()
	models := model.MarketMix(6)
	var names []string
	for _, m := range models {
		names = append(names, m.Name)
	}
	rng := rand.New(rand.NewSource(9))
	trace := workload.PoissonTrace(rng, names, 0.1, 120*time.Second, workload.ShareGPT())
	se := sim.NewEngine(1)
	sys := NewSystem(se, testConfig(models, engine.AllOptimizations(), nPrefill, nDecode))
	sys.LogTokens() // the recovery tests audit token order
	if err := sys.Submit(trace); err != nil {
		t.Fatal(err)
	}
	return sys, se, trace
}

// failInstance crashes the named instance and recovers its orphans at once.
func failInstance(sys *System, name string) (resumed, recomputed int, err error) {
	if err := sys.CrashInstance(name); err != nil {
		return 0, 0, err
	}
	resumed, recomputed = sys.RecoverOrphansOf(name)
	return resumed, recomputed, nil
}

// aliveInstances counts the live instances whose names start with prefix.
func aliveInstances(sys *System, prefix string) int {
	n := 0
	for _, name := range sys.InstanceNames() {
		if strings.HasPrefix(name, prefix) && sys.AliveNamed(name) {
			n++
		}
	}
	return n
}

func TestDecodeInstanceCrashRecovery(t *testing.T) {
	sys, se, trace := failoverFixture(t, 1, 3)
	var resumed, recomputed int
	se.At(45*time.Second, func() {
		var err error
		resumed, recomputed, err = failInstance(sys, "decode1")
		if err != nil {
			t.Error(err)
		}
	})
	se.Run()
	sys.Finalize(se.Now())
	if n := aliveInstances(sys, "decode"); n != 2 {
		t.Fatalf("alive decode instances = %d", n)
	}
	if sys.Completed() != len(trace) {
		t.Fatalf("completed %d/%d after crash", sys.Completed(), len(trace))
	}
	if resumed+recomputed == 0 {
		t.Fatal("crash at t=45s recovered zero requests — instance was idle?")
	}
	// Every request still has exactly its OutputTokens tokens, no more
	// (no double emission through recompute).
	for _, r := range sys.Requests() {
		if r.Generated() != r.OutputTokens {
			t.Fatalf("request %s has %d tokens, want %d", r.ID, r.Generated(), r.OutputTokens)
		}
	}
	// Attainment takes a hit but the system survives.
	if att := sys.Attainment(); att < 0.5 {
		t.Fatalf("post-crash attainment = %.3f", att)
	}
}

func TestPrefillInstanceCrashRecovery(t *testing.T) {
	sys, se, trace := failoverFixture(t, 2, 2)
	se.At(30*time.Second, func() {
		if _, _, err := failInstance(sys, "prefill0"); err != nil {
			t.Error(err)
		}
	})
	se.Run()
	sys.Finalize(se.Now())
	if n := aliveInstances(sys, "prefill"); n != 1 {
		t.Fatalf("alive prefill instances = %d", n)
	}
	if sys.Completed() != len(trace) {
		t.Fatalf("completed %d/%d after prefill crash", sys.Completed(), len(trace))
	}
	for _, r := range sys.Requests() {
		if r.Generated() != r.OutputTokens {
			t.Fatalf("request %s has %d tokens, want %d", r.ID, r.Generated(), r.OutputTokens)
		}
		for i := 1; i < len(r.TokenTimes); i++ {
			if r.TokenTimes[i] < r.TokenTimes[i-1] {
				t.Fatalf("request %s token times not monotone after recovery", r.ID)
			}
		}
	}
}

func TestDoubleFailureRejected(t *testing.T) {
	sys, se, _ := failoverFixture(t, 1, 2)
	se.At(10*time.Second, func() {
		if _, _, err := failInstance(sys, "decode0"); err != nil {
			t.Error(err)
		}
		if _, _, err := failInstance(sys, "decode0"); err == nil {
			t.Error("double failure accepted")
		}
		if _, _, err := failInstance(sys, "decode99"); err == nil {
			t.Error("failure of an unknown instance accepted")
		}
	})
	se.Run()
}

func TestCascadingDecodeFailures(t *testing.T) {
	// Fail 2 of 3 decode instances at different times; the last one must
	// finish everything.
	sys, se, trace := failoverFixture(t, 1, 3)
	se.At(30*time.Second, func() { _, _, _ = failInstance(sys, "decode0") })
	se.At(60*time.Second, func() { _, _, _ = failInstance(sys, "decode2") })
	se.Run()
	sys.Finalize(se.Now())
	if sys.Completed() != len(trace) {
		t.Fatalf("completed %d/%d after cascading failures", sys.Completed(), len(trace))
	}
	if n := aliveInstances(sys, "decode"); n != 1 {
		t.Fatalf("alive = %d", n)
	}
}
