package core

import (
	"testing"
	"time"

	"aegaeon/internal/decision"
	"aegaeon/internal/engine"
	"aegaeon/internal/model"
	"aegaeon/internal/sim"
	"aegaeon/internal/workload"
)

func ttft(r *Request) time.Duration { return time.Duration(r.FirstToken() - r.Arrival) }

// TestPrefixReuseShortensTTFT submits the same long prompt three times, far
// enough apart that each has fully drained. Turn 2 reuses the host tier
// (PCIe copy beats recomputing an 8K prefill); its Release promotes the
// chain, so turn 3 reuses the device tier (on-device copy, near-free). Both
// warm TTFTs must beat the cache-free arm, and device must beat host.
func TestPrefixReuseShortensTTFT(t *testing.T) {
	models := model.MarketMix(1)
	segs := []workload.PromptSeg{{Seed: 0xbeef, Len: 8192}}
	var trace []workload.Request
	for turn := 0; turn < 3; turn++ {
		trace = append(trace, workload.Request{
			ID: "r" + string(rune('0'+turn)), Model: models[0].Name,
			Arrival:     time.Duration(turn) * 60 * time.Second,
			InputTokens: 8192, OutputTokens: 4,
			SessionID: "s0", Segments: segs,
		})
	}
	run := func(pfx bool) *System {
		cfg := testConfig(models, engine.AllOptimizations(), 1, 1)
		cfg.Prefix = pfx
		return runTrace(t, cfg, trace)
	}

	cold := run(false)
	warm := run(true)
	if cold.Completed() != 3 || warm.Completed() != 3 {
		t.Fatalf("completed cold=%d warm=%d, want 3/3", cold.Completed(), warm.Completed())
	}
	byID := func(sys *System) map[string]*Request {
		m := map[string]*Request{}
		for _, r := range sys.Requests() {
			m[r.ID] = r
		}
		return m
	}
	c, w := byID(cold), byID(warm)
	if w["r0"].PrefixMatched != 0 {
		t.Errorf("first request matched %d tokens against an empty cache", w["r0"].PrefixMatched)
	}
	for _, id := range []string{"r1", "r2"} {
		m := w[id].PrefixMatched
		// Block-aligned, capped one token short of the 8192-token prompt.
		if m < 4096 || m >= 8192 {
			t.Errorf("%s matched %d tokens, want most of the 8192-token prompt", id, m)
		}
		if ttft(w[id]) >= ttft(w["r0"]) {
			t.Errorf("%s warm TTFT %v not below its own cold first turn %v", id, ttft(w[id]), ttft(w["r0"]))
		}
		if ttft(w[id]) >= ttft(c[id]) {
			t.Errorf("%s warm TTFT %v not below cache-free TTFT %v", id, ttft(w[id]), ttft(c[id]))
		}
	}
	// Turn 3 rides the promoted device copy: far cheaper than turn 2's PCIe
	// host copy.
	if ttft(w["r2"]) >= ttft(w["r1"]) {
		t.Errorf("device-tier TTFT %v not below host-tier TTFT %v", ttft(w["r2"]), ttft(w["r1"]))
	}
	t.Logf("TTFT cold=%v host=%v device=%v", ttft(c["r1"]), ttft(w["r1"]), ttft(w["r2"]))

	st := warm.PrefixCache().Stats()
	if st.Hits != 2 || st.TokensSaved != uint64(w["r1"].PrefixMatched+w["r2"].PrefixMatched) {
		t.Errorf("stats = %+v, want 2 hits / %d saved", st, w["r1"].PrefixMatched+w["r2"].PrefixMatched)
	}
	if st.Promotions == 0 {
		t.Error("no promotions: turn 3 never reached the device tier")
	}
	if st.PinnedEntries != 0 {
		t.Errorf("%d entries pinned after drain", st.PinnedEntries)
	}
	if bad := warm.PrefixCache().CheckConsistency(); len(bad) != 0 {
		t.Errorf("consistency: %v", bad)
	}
	// Engine accounting: one reuse copy op per warm turn.
	var reuses uint64
	for _, e := range warm.Engines() {
		reuses += e.Stats().PrefixReuses
	}
	if reuses != 2 {
		t.Errorf("engine prefix reuses = %d, want 2", reuses)
	}
}

// TestPrefixRoutingSessionAffinity: with two prefill instances and routing
// on, every later turn of a session lands on the instance whose device tier
// holds the session's chain — all reuses on one engine.
func TestPrefixRoutingSessionAffinity(t *testing.T) {
	models := model.MarketMix(1)
	segs := func(n int) []workload.PromptSeg {
		return []workload.PromptSeg{{Seed: 0xcafe, Len: n}}
	}
	var trace []workload.Request
	for turn := 0; turn < 5; turn++ {
		n := 1024 + 512*turn
		trace = append(trace, workload.Request{
			ID: string(rune('a'+turn)) + "0", Model: models[0].Name,
			Arrival:     time.Duration(turn) * 45 * time.Second,
			InputTokens: n, OutputTokens: 4,
			SessionID: "chat", Segments: segs(n),
		})
	}
	cfg := testConfig(models, engine.AllOptimizations(), 2, 1)
	cfg.Prefix = true
	sys := runTrace(t, cfg, trace)
	if sys.Completed() != len(trace) {
		t.Fatalf("completed %d of %d", sys.Completed(), len(trace))
	}
	reusedOn := map[string]uint64{}
	var total uint64
	for _, e := range sys.Engines() {
		if n := e.Stats().PrefixReuses; n > 0 {
			reusedOn[e.Name] = n
			total += n
		}
	}
	if total < 4 {
		t.Fatalf("only %d reuses across 5 turns", total)
	}
	if len(reusedOn) != 1 {
		t.Errorf("session chain reused on %d instances (%v), want sticky placement on 1", len(reusedOn), reusedOn)
	}
}

// TestPrefixCrashDropsDeviceAndReleasesPins: crash the prefill instance while
// a session's chain is hot on its device tier; recovery must re-dispatch to
// the survivor, forget the dead device copies without double-freeing, and
// leave no pins behind.
func TestPrefixCrashDropsDeviceAndReleasesPins(t *testing.T) {
	models := model.MarketMix(1)
	segs := []workload.PromptSeg{{Seed: 0xdead, Len: 4096}}
	mk := func(turn int, at time.Duration) workload.Request {
		return workload.Request{
			ID: "t" + string(rune('0'+turn)), Model: models[0].Name, Arrival: at,
			InputTokens: 4096, OutputTokens: 8, SessionID: "s", Segments: segs,
		}
	}
	trace := []workload.Request{mk(0, 0), mk(1, 40*time.Second), mk(2, 80*time.Second)}

	se := sim.NewEngine(1)
	cfg := testConfig(models, engine.AllOptimizations(), 2, 1)
	cfg.Prefix = true
	sys := NewSystem(se, cfg)
	if err := sys.Submit(trace); err != nil {
		t.Fatal(err)
	}
	// Crash whichever prefill instance served the session, right as turn 2
	// arrives (its routed dispatch may be in flight on the dead instance).
	se.At(80*time.Second+time.Millisecond, func() {
		name := "prefill0"
		if sys.prefills[1].eng.Stats().PrefixReuses > 0 {
			name = "prefill1"
		}
		if _, _, err := failInstance(sys, name); err != nil {
			t.Errorf("crash: %v", err)
		}
	})
	se.Run()
	sys.Finalize(se.Now())

	for _, r := range sys.Requests() {
		if r.Outcome != decision.OutcomeDone {
			t.Errorf("request %s not completed after failover (outcome %q %q)", r.ID, r.Outcome, r.FailReason)
		}
	}
	pc := sys.PrefixCache()
	if pc.PinnedEntries() != 0 {
		t.Errorf("%d entries pinned after drain", pc.PinnedEntries())
	}
	if bad := pc.CheckConsistency(); len(bad) != 0 {
		t.Errorf("consistency: %v", bad)
	}
	st := pc.Stats()
	if st.DeviceDrops == 0 {
		t.Error("crash dropped no device copies — the test never promoted, or DropInstance did not run")
	}
	// Surviving instances' GPU pools hold exactly the cache's device copies;
	// the shared CPU pool exactly the host tier.
	for _, p := range sys.prefills {
		if p.dead {
			continue
		}
		if used := p.eng.KV().GPUCache.Pool().UsedBytes(); used != pc.DeviceResidentBytes(p.eng.Name) {
			t.Errorf("%s: pool %d bytes vs cache accounting %d", p.eng.Name, used, pc.DeviceResidentBytes(p.eng.Name))
		}
	}
	if used := sys.cpuKV.Pool().UsedBytes(); used != pc.HostResidentBytes() {
		t.Errorf("CPU pool %d bytes vs cache accounting %d", used, pc.HostResidentBytes())
	}
}
