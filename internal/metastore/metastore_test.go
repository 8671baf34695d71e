package metastore

import (
	"testing"
	"time"

	"aegaeon/internal/sim"
)

func TestSetGetSync(t *testing.T) {
	eng := sim.NewEngine(1)
	s := New(eng, 0)
	s.Set("req/1", "prefill0", nil)
	if v, ok := s.GetNow("req/1"); !ok || v != "prefill0" {
		t.Fatalf("GetNow = (%q,%v)", v, ok)
	}
}

func TestRTTDelaysVisibility(t *testing.T) {
	eng := sim.NewEngine(1)
	s := New(eng, 2*time.Millisecond)
	acked := sim.Time(0)
	s.Set("k", "v", func(error) { acked = eng.Now() })
	if _, ok := s.GetNow("k"); ok {
		t.Fatal("write visible before RTT")
	}
	eng.Run()
	if acked != 2*time.Millisecond {
		t.Fatalf("ack at %v", acked)
	}
	var got string
	s.Get("k", func(v string, ok bool) { got = v })
	eng.Run()
	if got != "v" {
		t.Fatalf("Get = %q", got)
	}
}

func TestWatchPrefix(t *testing.T) {
	eng := sim.NewEngine(1)
	s := New(eng, time.Millisecond)
	var events []string
	cancel := s.Watch("req/", func(k, v string) { events = append(events, k+"="+v) })
	s.Set("req/1", "a", nil)
	s.Set("other/2", "b", nil)
	s.Delete("req/1", nil)
	eng.Run()
	if len(events) != 2 || events[0] != "req/1=a" || events[1] != "req/1=" {
		t.Fatalf("events = %v", events)
	}
	cancel()
	s.Set("req/3", "c", nil)
	eng.Run()
	if len(events) != 2 {
		t.Fatal("cancelled watch still fired")
	}
}

func TestDeleteMissingKey(t *testing.T) {
	eng := sim.NewEngine(1)
	s := New(eng, 0)
	done := false
	s.Delete("ghost", func(error) { done = true })
	if !done {
		t.Fatal("delete of missing key did not ack")
	}
}

func TestKeysAndVersion(t *testing.T) {
	eng := sim.NewEngine(1)
	s := New(eng, 0)
	s.Set("a/2", "x", nil)
	s.Set("a/1", "y", nil)
	s.Set("b/1", "z", nil)
	keys := s.Keys("a/")
	if len(keys) != 2 || keys[0] != "a/1" || keys[1] != "a/2" {
		t.Fatalf("keys = %v", keys)
	}
	s.Set("a/1", "y2", nil)
	if v := s.View(); v.Gets != 0 || v.Sets != 4 || v.Deletes != 0 {
		t.Fatalf("ops = %d/%d/%d", v.Gets, v.Sets, v.Deletes)
	}
}

// TestWatchCancelCompacts is the regression test for the watch lifecycle
// leak: cancelled watches must be removed from the store, not merely
// flagged, or a long-running gateway accumulates dead callbacks.
func TestWatchCancelCompacts(t *testing.T) {
	eng := sim.NewEngine(1)
	s := New(eng, 0)
	var cancels []func()
	for i := 0; i < 64; i++ {
		cancels = append(cancels, s.Watch("k/", func(string, string) {}))
	}
	if got := s.View().Watches; got != 64 {
		t.Fatalf("watches = %d, want 64", got)
	}
	for _, c := range cancels {
		c()
		c() // idempotent
	}
	if got := s.View().Watches; got != 0 {
		t.Fatalf("watches = %d after cancelling all, want 0", got)
	}
}

// TestWatchCancelDuringSweep cancels a watch from inside its own callback
// while a notification sweep is iterating: the sweep must complete and the
// store must still compact.
func TestWatchCancelDuringSweep(t *testing.T) {
	eng := sim.NewEngine(1)
	s := New(eng, 0)
	fired := map[string]int{}
	var cancelSelf func()
	cancelSelf = s.Watch("a/", func(k, _ string) {
		fired["self"]++
		cancelSelf()
	})
	s.Watch("a/", func(k, _ string) { fired["sibling"]++ })
	s.Set("a/x", "1", nil)
	s.Set("a/y", "2", nil)
	if fired["self"] != 1 {
		t.Fatalf("self-cancelling watch fired %d times, want 1", fired["self"])
	}
	if fired["sibling"] != 2 {
		t.Fatalf("sibling watch fired %d times, want 2", fired["sibling"])
	}
	if got := s.View().Watches; got != 1 {
		t.Fatalf("watches = %d, want 1", got)
	}
}

func TestDeleteNotifiesWatchersRegression(t *testing.T) {
	// Failover leases depend on delete notifications: a proxy watching
	// lease/ must see the empty-value event when an instance's lease key is
	// removed, through RTT delay.
	eng := sim.NewEngine(1)
	s := New(eng, time.Millisecond)
	type ev struct {
		k, v string
		at   sim.Time
	}
	var got []ev
	s.Watch("lease/", func(k, v string) { got = append(got, ev{k, v, eng.Now()}) })
	s.Set("lease/decode0", "alive", nil)
	eng.Run()
	s.Delete("lease/decode0", nil)
	eng.Run()
	if len(got) != 2 {
		t.Fatalf("events = %v", got)
	}
	if got[1].k != "lease/decode0" || got[1].v != "" {
		t.Fatalf("delete notification = %+v", got[1])
	}
	if got[1].at != got[0].at+time.Millisecond {
		t.Fatalf("delete visible at %v, set at %v", got[1].at, got[0].at)
	}
}

func TestCompareAndSwap(t *testing.T) {
	eng := sim.NewEngine(1)
	s := New(eng, time.Millisecond)

	// Absent key compares as "": the first claimant wins, the second loses.
	var r1, r2 *bool
	s.CompareAndSwap("failover/decode0", "", "proxyA", func(sw bool, err error) {
		if err != nil {
			t.Errorf("cas1 err: %v", err)
		}
		r1 = &sw
	})
	s.CompareAndSwap("failover/decode0", "", "proxyB", func(sw bool, err error) {
		if err != nil {
			t.Errorf("cas2 err: %v", err)
		}
		r2 = &sw
	})
	eng.Run()
	if r1 == nil || r2 == nil || !*r1 || *r2 {
		t.Fatalf("racing CAS: first=%v second=%v", r1, r2)
	}
	if v, _ := s.GetNow("failover/decode0"); v != "proxyA" {
		t.Fatalf("value = %q", v)
	}

	// Successful swap behaves like Set: watchers fire.
	var notified []string
	s.Watch("failover/", func(k, v string) { notified = append(notified, v) })
	var swapped bool
	s.CompareAndSwap("failover/decode0", "proxyA", "proxyC", func(sw bool, err error) { swapped = sw })
	eng.Run()
	if !swapped || len(notified) != 1 || notified[0] != "proxyC" {
		t.Fatalf("swap=%v notified=%v", swapped, notified)
	}
}

func TestPartitionDropsOps(t *testing.T) {
	eng := sim.NewEngine(1)
	s := New(eng, time.Millisecond)
	s.Set("k", "v0", nil)
	eng.Run()

	s.Partition(10 * time.Millisecond)
	if s.Available() {
		t.Fatal("store available inside partition window")
	}
	var setErr, getErr, casErr error
	var gotOK bool
	s.Set("k", "v1", func(err error) { setErr = err })
	s.GetE("k", func(v string, ok bool, err error) { gotOK, getErr = ok, err })
	s.CompareAndSwap("k", "v0", "v2", func(sw bool, err error) { casErr = err })
	var legacy string
	var legacyOK bool
	s.Get("k", func(v string, ok bool) { legacy, legacyOK = v, ok })
	s.Delete("k", nil)
	eng.Run()
	if setErr != ErrUnavailable || getErr != ErrUnavailable || casErr != ErrUnavailable {
		t.Fatalf("errors: set=%v get=%v cas=%v", setErr, getErr, casErr)
	}
	if gotOK || legacyOK || legacy != "" {
		t.Fatal("partitioned read returned data")
	}
	if v, ok := s.GetNow("k"); !ok || v != "v0" {
		t.Fatalf("partitioned write mutated store: (%q,%v)", v, ok)
	}
	if got := s.View().FailedOps; got != 5 {
		t.Fatalf("failed ops = %d", got)
	}

	// After the window the store heals.
	eng.After(20*time.Millisecond, func() {})
	eng.Run()
	if !s.Available() {
		t.Fatal("store still partitioned after window")
	}
	var err2 error
	s.Set("k", "v3", func(err error) { err2 = err })
	eng.Run()
	if err2 != nil {
		t.Fatalf("post-heal SetE err: %v", err2)
	}
	if v, _ := s.GetNow("k"); v != "v3" {
		t.Fatalf("post-heal value = %q", v)
	}
}

func TestSlowByStretchesRTT(t *testing.T) {
	eng := sim.NewEngine(1)
	s := New(eng, time.Millisecond)
	s.SlowBy(5, 50*time.Millisecond)
	var ackAt sim.Time
	s.Set("k", "v", func(err error) { ackAt = eng.Now() })
	eng.Run()
	if ackAt != 5*time.Millisecond {
		t.Fatalf("slowed ack at %v, want 5ms", ackAt)
	}
	// Window expiry restores the base RTT (the submit lands at 5ms+60ms).
	var ack2 sim.Time
	eng.After(60*time.Millisecond, func() {
		s.Set("k", "v2", func(err error) { ack2 = eng.Now() })
	})
	eng.Run()
	if ack2 != 66*time.Millisecond {
		t.Fatalf("post-window ack at %v, want 66ms", ack2)
	}
}

// Regression: the store's watch notifications must fire in
// submission order — the order writes commit — even when a latency spike
// expires between two submissions. Before the FIFO fix the slowed op landed
// after the fast one and the watch replayed history backwards.
func TestStoreWatchOrderMatchesVersion(t *testing.T) {
	eng := sim.NewEngine(1)
	s := New(eng, time.Millisecond)
	var order []string
	s.Watch("k", func(k, v string) { order = append(order, v) })
	s.SlowBy(10, 500*time.Microsecond) // first op completes at 10ms
	s.Set("k", "first", nil)           // submitted under the spike
	eng.At(2*time.Millisecond, func() {
		s.Set("k", "second", nil) // spike expired: raw latency would land at 3ms
	})
	eng.Run()
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Fatalf("notification order = %v, want [first second]", order)
	}
	if v, _ := s.GetNow("k"); v != "second" {
		t.Fatalf("final value = %q, want the later submission", v)
	}
}
