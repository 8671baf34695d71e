package chaos

import (
	"math/rand"
	"testing"
	"time"

	"aegaeon/internal/cluster"
	"aegaeon/internal/fault"
	"aegaeon/internal/latency"
	"aegaeon/internal/model"
	"aegaeon/internal/prefixcache"
	"aegaeon/internal/sim"
	"aegaeon/internal/slo"
	"aegaeon/internal/workload"
)

// Golden seeded regression table: each schedule is deterministic given its
// seed, so the outcome is an exact expectation, not a flake. The table pins
// the recovery machinery's observable behavior; a diff here means recovery
// semantics changed and must be reviewed, not papered over.
func TestSeededFaultSchedules(t *testing.T) {
	cases := []struct {
		name      string
		cfg       Config
		completed int
		failed    int
		injected  int
		failovers int
	}{
		{
			name:      "decode-crash-failover",
			cfg:       Config{Seed: 1, Spec: "crash@40s:chaos/decode0"},
			completed: 51, failed: 0, injected: 1, failovers: 1,
		},
		{
			name:      "prefill-crash-failover",
			cfg:       Config{Seed: 2, Spec: "crash@30s:chaos/prefill1"},
			completed: 62, failed: 0, injected: 1, failovers: 1,
		},
		{
			// Both decode instances die: in-flight and later work is cleanly
			// rejected, nothing hangs.
			name:      "double-decode-crash",
			cfg:       Config{Seed: 3, Spec: "crash@35s:chaos/decode0,crash@50s:chaos/decode1"},
			completed: 19, failed: 57, injected: 2, failovers: 2,
		},
		{
			name:      "transfer-and-fetch-storm",
			cfg:       Config{Seed: 4, Spec: "xfer@20s+3s,fetchfail@45s+10s,fetchslow@70s+20s*4"},
			completed: 67, failed: 0, injected: 3, failovers: 0,
		},
		{
			// The store is unreachable while the crash happens: detection is
			// delayed past the partition, then failover proceeds.
			name:      "partition-during-crash",
			cfg:       Config{Seed: 5, Spec: "partition@38s+6s,crash@40s:chaos/decode1"},
			completed: 59, failed: 0, injected: 2, failovers: 1,
		},
		{
			// The draw includes a repeat crash on prefill0, which fails to
			// inject (already dead) — 3 of 4 faults land.
			name:      "random-seed-11",
			cfg:       Config{Seed: 11},
			completed: 85, failed: 0, injected: 3, failovers: 2,
		},
		{
			// The draw includes a spot reclaim on prefill1: notice, aware
			// evacuation, revocation, failover — all inside a random schedule.
			name:      "random-seed-23",
			cfg:       Config{Seed: 23},
			completed: 87, failed: 0, injected: 4, failovers: 1,
		},
	}
	for i := range cases {
		tc := &cases[i]
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, viol := range res.Violations {
				t.Errorf("invariant: %s", viol)
			}
			t.Logf("spec=%s requests=%d completed=%d failed=%d injected=%d failovers=%d stats=%+v",
				res.Spec, res.Requests, res.Completed, res.Failed, res.Injected, res.Failovers, res.Stats)
			if res.Completed+res.Failed != res.Requests {
				t.Fatalf("completed %d + failed %d != %d requests",
					res.Completed, res.Failed, res.Requests)
			}
			if res.Completed != tc.completed || res.Failed != tc.failed ||
				res.Injected != tc.injected || res.Failovers != tc.failovers {
				t.Fatalf("outcome drifted from golden: completed %d/%d failed %d/%d injected %d/%d failovers %d/%d",
					res.Completed, tc.completed, res.Failed, tc.failed,
					res.Injected, tc.injected, res.Failovers, tc.failovers)
			}
		})
	}
}

// TestDecisionCoverageSwitchHeavy is the provenance acceptance gate: a
// switch-heavy run (many models over two prefill + two decode instances, so
// every prefill group and decode turn rotates the resident model) under
// overload control and spot-market faults, where CheckCoverage must hold —
// every terminal request has an admission-to-terminal chain and every shed,
// eviction, and evacuation record carries evidence terms. The journal must
// actually have exercised the policy-site families the run drove, or the
// audit would be passing vacuously.
func TestDecisionCoverageSwitchHeavy(t *testing.T) {
	res, err := Run(Config{
		Seed:     7,
		Models:   8,
		Rate:     0.6,
		Overload: true,
		Spot:     true,
		Spec:     "reclaim@40s+8s:chaos/decode0,throttle@55s+20s*2.5:chaos/prefill1,reclaim@80s:chaos/decode1",
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, viol := range res.Violations {
		t.Errorf("invariant: %s", viol)
	}
	j := res.Decisions
	if j == nil {
		t.Fatal("chaos run carried no decision journal")
	}
	kinds := map[string]uint64{}
	for _, c := range j.Counts() {
		kinds[c.Kind] += c.N
	}
	t.Logf("decisions=%d chains=%d kinds=%v sheds=%v", j.Total(), j.TrackedRequests(), kinds, res.Sheds)
	for _, want := range []string{"admission", "prefill_routing", "decode_placement", "switch", "terminal", "evacuation"} {
		if kinds[want] == 0 {
			t.Errorf("switch-heavy overload+market run journaled no %q decisions", want)
		}
	}
	if kinds["switch"] < 20 {
		t.Errorf("run was not switch-heavy: only %d switch decisions journaled", kinds["switch"])
	}
	// Every terminal request's chain is live-queryable by ID, ends in its
	// terminal record, and starts at admission — the /debug/why contract.
	sys := findDeployment(t, res)
	for _, r := range sys {
		chain := j.Chain(r)
		if len(chain) == 0 {
			t.Fatalf("request %s has no chain", r)
		}
		if chain[len(chain)-1].Kind != "terminal" {
			t.Errorf("request %s chain ends with %s, want terminal", r, chain[len(chain)-1].Kind)
		}
	}
}

// findDeployment returns a sample of terminal request IDs from the run — the
// journal's chains snapshot already holds every retained request.
func findDeployment(t *testing.T, res *Result) []string {
	t.Helper()
	chains := res.Decisions.Chains()
	if len(chains) == 0 {
		t.Fatal("journal retained no request chains")
	}
	n := len(chains)
	if n > 16 {
		n = 16
	}
	ids := make([]string, 0, n)
	for _, c := range chains[:n] {
		ids = append(ids, c.Request)
	}
	return ids
}

// TestChaosSweep runs a batch of random seeds — the "no seed may violate the
// invariants" safety net beyond the pinned table.
func TestChaosSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep skipped in -short mode")
	}
	for seed := int64(100); seed < 112; seed++ {
		res, err := Run(Config{Seed: seed, RandomFaults: 5})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, viol := range res.Violations {
			t.Errorf("seed %d (spec %s): %s", seed, res.Spec, viol)
		}
		if res.Completed+res.Failed != res.Requests {
			t.Fatalf("seed %d: completed %d + failed %d != %d requests",
				seed, res.Completed, res.Failed, res.Requests)
		}
	}
}

// TestPrefixChaosInvariants runs fault schedules with the prefix cache on
// and a multi-turn workload: crashes drop device tiers mid-chain, recovery
// re-prefills pinned chains, and the drained end state must show refcounts
// back at zero and every slab accounted for (no leak, no double-free).
func TestPrefixChaosInvariants(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{
			// A prefill crash is the interesting one: device copies die with
			// the instance and in-flight pins must be released on recovery.
			name: "prefix-prefill-crash",
			cfg:  Config{Seed: 13, Prefix: true, Spec: "crash@40s:chaos/prefill0"},
		},
		{
			name: "prefix-decode-crash",
			cfg:  Config{Seed: 14, Prefix: true, Spec: "crash@45s:chaos/decode0"},
		},
		{
			name: "prefix-double-prefill-crash",
			cfg:  Config{Seed: 15, Prefix: true, Spec: "crash@30s:chaos/prefill0,crash@55s:chaos/prefill1"},
		},
		{
			name: "prefix-random-faults",
			cfg:  Config{Seed: 16, Prefix: true},
		},
	}
	for i := range cases {
		tc := &cases[i]
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, viol := range res.Violations {
				t.Errorf("invariant: %s", viol)
			}
			if res.Prefix == nil {
				t.Fatal("prefix run produced no prefix stats")
			}
			t.Logf("spec=%s requests=%d completed=%d failed=%d prefix hits=%d saved=%d drops=%d",
				res.Spec, res.Requests, res.Completed, res.Failed,
				res.Prefix.Hits, res.Prefix.TokensSaved, res.Prefix.DeviceDrops)
			if res.Completed+res.Failed != res.Requests {
				t.Fatalf("completed %d + failed %d != %d requests",
					res.Completed, res.Failed, res.Requests)
			}
			if res.Prefix.Hits == 0 {
				t.Error("multi-turn chaos run never reused a prefix")
			}
			if res.Prefix.PinnedEntries != 0 {
				t.Errorf("%d entries pinned after drain", res.Prefix.PinnedEntries)
			}
		})
	}
}

// TestPrefixEvictionRacesReuse is the seeded -race schedule: filler chains
// pinned for the whole run leave the host tier only a few blocks of room, so
// the run's own chains evict each other while multi-turn sessions reuse them
// and a prefill crash drops a device tier mid-run, and a prober reads the
// cache's surface throughout.
func TestPrefixEvictionRacesReuse(t *testing.T) {
	const seed = 21
	se := sim.NewEngine(seed)
	f := fault.New(se, seed+1)
	models := model.SmallMix(4)
	c, err := cluster.New(se, cluster.Config{
		Prof:   latency.H800(),
		SLO:    slo.Default(),
		Faults: f,
		Deployments: []cluster.DeploymentConfig{{
			Name: "chaos", TP: 1, NumPrefill: 2, NumDecode: 2, Models: models,
		}},
		Prefix: &prefixcache.Config{Routing: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Deployments()[0].System.LogTokens()
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Name
	}
	rng := rand.New(rand.NewSource(seed + 2))
	trace := workload.MultiTurnTrace(rng, names, 0.05, 120*time.Second,
		workload.ShareGPT(), workload.MultiTurnConfig{MeanTurns: 3, SystemPromptTokens: 128})
	if err := c.Submit(trace); err != nil {
		t.Fatal(err)
	}
	sched, err := fault.ParseSpec("crash@40s:chaos/prefill0")
	if err != nil {
		t.Fatal(err)
	}
	fault.NewInjector(se, c, f, sched).Arm()
	se.At(0, c.StartHealth)
	se.At(300*time.Second, c.StopHealth)

	pc := c.Deployments()[0].System.PrefixCache()
	pins, filler := pinFiller(t, pc, names[3], models[3].KVShape())
	base := pc.Stats()
	sysSegs := []workload.PromptSeg{{Seed: workload.SeedString("system\x00" + names[0]), Len: 128}}
	sysHashes := prefixcache.ChunkHashes(sysSegs, 128/pc.BlockTokens(), pc.BlockTokens())
	// A prober on the event loop reads the cache's surface every virtual
	// second of the run, as the live gateway's handlers do through the
	// driver.
	probes := 0
	for at := time.Duration(0); at < 240*time.Second; at += time.Second {
		se.At(at, func() {
			_ = pc.Stats()
			_, _ = pc.Match(names[0], sysHashes, 129, nil)
			_ = pc.HostResidentBytes()
			if bad := pc.CheckConsistency(); len(bad) != 0 {
				t.Errorf("consistency at %v: %v", at, bad)
			}
			probes++
		})
	}

	se.Run()
	c.Finalize(se.Now())
	if probes == 0 {
		t.Error("prober never ran")
	}
	for _, h := range pins {
		h.Release(se.Now())
	}

	for _, viol := range VerifyInvariants(c) {
		t.Errorf("invariant: %s", viol)
	}
	st := pc.Stats()
	hostEv := st.HostEvictions - base.HostEvictions
	t.Logf("hits=%d saved=%d hostEvictions=%d (unpinned filler %d blocks) devEvictions=%d drops=%d",
		st.Hits-base.Hits, st.TokensSaved-base.TokensSaved, hostEv, filler,
		st.DeviceEvictions-base.DeviceEvictions, st.DeviceDrops)
	if st.Hits == base.Hits {
		t.Error("no prefix reuse under the seeded schedule")
	}
	// Eviction is LRU and the filler was last used at time 0, so the
	// unpinned filler goes first: any eviction beyond it took a chain the
	// run inserted.
	if hostEv <= filler {
		t.Errorf("%d host evictions never got past the %d unpinned filler blocks — no eviction/reuse race exercised",
			hostEv, filler)
	}
}

// pinFiller fills pc's host tier to its cap with filler chains of model m
// that no request shares, and pins all but hostHeadroom of them under an
// instance that is never attached. The caller holds the returned hits for
// the whole run and releases them before auditing. unpinned counts the
// filler blocks left evictable.
func pinFiller(t *testing.T, pc *prefixcache.Cache, m string, shape model.KVShape) (pins []*prefixcache.Hit, unpinned uint64) {
	t.Helper()
	const (
		hostHeadroom = 64 << 20
		chainLen     = 4096
	)
	block := pc.BlockTokens()
	// Whole chains until an insert evicts, which takes the first chain's
	// tail (eviction is LRU, then by hash).
	var chains [][]uint64
	for i := uint64(1); pc.Stats().HostEvictions == 0; i++ {
		chain := make([]uint64, chainLen)
		for k := range chain {
			chain[k] = i<<32 | uint64(k)
		}
		pc.Insert(m, shape, chain, chainLen*block, 0)
		chains = append(chains, chain)
	}
	st := pc.Stats()
	bb := st.HostBytes / int64(st.HostEntries)

	// Pin newest chain first; the first chain, the partial one, goes last.
	first := st.HostEntries - (len(chains)-1)*chainLen
	toPin := st.HostEntries - int(hostHeadroom/bb)
	unpinned = uint64(st.HostEntries - toPin)
	for i := len(chains) - 1; toPin > 0; i-- {
		n := chainLen
		if i == 0 {
			n = first
		}
		n = min(toPin, n)
		h := pc.Acquire("filler", m, shape, chains[i][:n], n*block+1, 0)
		if h == nil || h.MatchedTokens != n*block {
			t.Fatalf("filler pin matched %v, want %d blocks", h, n)
		}
		pins = append(pins, h)
		toPin -= n
	}
	return pins, unpinned
}

// TestOverloadChaosInvariants runs fault schedules with overload control
// active — brownout shedding, the deadline reaper, and failover all mutating
// the same queues — and audits the full invariant set. Sheds are clean
// rejections, so terminal-state accounting must still balance exactly.
func TestOverloadChaosInvariants(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{
			// 3x-ish the small-mix capacity plus a prefill crash: the reaper
			// and crash recovery race over the surviving queue.
			name: "overload-prefill-crash",
			cfg:  Config{Seed: 7, Rate: 1.2, Horizon: 60 * time.Second, Overload: true, Spec: "crash@25s:chaos/prefill0"},
		},
		{
			// Overload while the decode side degrades to one instance.
			name: "overload-decode-crash",
			cfg:  Config{Seed: 8, Rate: 1.2, Horizon: 60 * time.Second, Overload: true, Spec: "crash@30s:chaos/decode1"},
		},
		{
			name: "overload-random-faults",
			cfg:  Config{Seed: 9, Rate: 1.0, Horizon: 90 * time.Second, Overload: true, RandomFaults: 4},
		},
	}
	for i := range cases {
		tc := &cases[i]
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, viol := range res.Violations {
				t.Errorf("invariant: %s", viol)
			}
			t.Logf("spec=%s requests=%d completed=%d failed=%d sheds=%v failovers=%d",
				res.Spec, res.Requests, res.Completed, res.Failed, res.Sheds, res.Failovers)
			if res.Completed+res.Failed != res.Requests {
				t.Fatalf("completed %d + failed %d != %d requests (sheds %v)",
					res.Completed, res.Failed, res.Requests, res.Sheds)
			}
			shed := 0
			for _, n := range res.Sheds {
				shed += n
			}
			if shed == 0 {
				t.Fatal("overload run shed nothing — the schedule is not overloading")
			}
		})
	}
}

// TestFleetChaosAccounting crashes one decode instance and audits the fleet
// ledger directly: the crashed device is parked in the faulted state with
// its post-crash time charged there, every device's state integrals conserve
// GPU-seconds exactly (verifyFleet found nothing), and survivors keep
// accumulating busy time — no GPU-second is double-counted or lost across
// the crash edge.
func TestFleetChaosAccounting(t *testing.T) {
	res, err := Run(Config{Seed: 1, Spec: "crash@40s:chaos/decode0"})
	if err != nil {
		t.Fatal(err)
	}
	for _, viol := range res.Violations {
		t.Errorf("invariant: %s", viol)
	}
	snap := res.Fleet
	if snap == nil {
		t.Fatal("chaos run produced no fleet snapshot")
	}
	if len(snap.ConservationErrors) > 0 {
		t.Fatalf("conservation violated: %v", snap.ConservationErrors)
	}
	var crashed, survivors int
	for _, d := range snap.Devices {
		if d.Device == "decode0" {
			crashed++
			if !d.Faulted {
				t.Errorf("decode0 crashed but not marked faulted")
			}
			if d.Current != "faulted" {
				t.Errorf("decode0 currently charged to %s, want faulted", d.Current)
			}
			faultedS := d.StatesS["faulted"]
			wantS := snap.NowSeconds - 40 // crash instant through drain
			if faultedS <= 0 || faultedS > wantS+1e-6 {
				t.Errorf("decode0 faulted %vs, want in (0, %vs]", faultedS, wantS)
			}
			// Post-crash time is faulted, so non-faulted states account for
			// at most the 40 pre-crash seconds.
			if other := d.WallS - faultedS; other > 40+1e-6 {
				t.Errorf("decode0 non-faulted time %vs exceeds pre-crash window", other)
			}
		} else {
			survivors++
			if d.Faulted {
				t.Errorf("%s marked faulted without a crash", d.Device)
			}
			if d.StatesS["faulted"] != 0 {
				t.Errorf("%s accumulated %vs faulted time without a crash",
					d.Device, d.StatesS["faulted"])
			}
		}
	}
	if crashed != 1 {
		t.Fatalf("crashed device missing from snapshot (%d devices)", len(snap.Devices))
	}
	if survivors == 0 {
		t.Fatal("no surviving devices in snapshot")
	}
	if snap.Fleet.FaultedS <= 0 {
		t.Error("fleet rollup shows no faulted time after a crash")
	}
	if snap.Fleet.BusyS <= 0 {
		t.Error("fleet rollup shows no busy time — ledger observed no work")
	}
}

// TestSpotChaosInvariants pins explicit spot-market schedules: reclaim
// notices and thermal throttles on a heterogeneous pool, in aware and naive
// modes, audited by the full invariant set (verifyMarket reconciles the
// counters against the preemption records, checks revoked devices are dead
// and ineligible, and that no evacuation transfer is left pending).
func TestSpotChaosInvariants(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		// Exact seeded expectations on the market counters.
		preemptions, revocations, throttles int
	}{
		{
			// Aware mode: the notice evacuates decode1's KV inside the 5s
			// grace window; a later throttle discounts decode0's capability.
			name: "aware-decode-reclaim",
			cfg: Config{Seed: 31, Rate: 0.5, MarketClasses: "H800,A10", Spot: true,
				Spec: "reclaim@40s+5s:chaos/decode1,throttle@60s+20s*2.5:chaos/decode0"},
			preemptions: 1, revocations: 1, throttles: 1,
		},
		{
			// Naive mode: same notice, no advance reaction — everything
			// GPU-resident at the deadline recovers through the crash path.
			name: "naive-decode-reclaim",
			cfg: Config{Seed: 31, Rate: 0.5, MarketClasses: "H800,A10", Spot: true, MarketNaive: true,
				Spec: "reclaim@40s+5s:chaos/decode1"},
			preemptions: 1, revocations: 1,
		},
		{
			// A prefill reclaim re-homes queued groups and drops prefix
			// device copies in favor of their host-tier chains.
			name: "aware-prefill-reclaim-prefix",
			cfg: Config{Seed: 32, Prefix: true, MarketClasses: "H800,A10",
				Spec: "reclaim@45s+5s:chaos/prefill0"},
			preemptions: 1, revocations: 1,
		},
		{
			// Two of two decodes reclaimed back to back: the second notice
			// lands while the pool is already degraded; in-flight and later
			// decode work must terminate cleanly, nothing hangs.
			name: "aware-double-decode-reclaim",
			cfg: Config{Seed: 33, Rate: 0.5, Spot: true,
				Spec: "reclaim@35s+5s:chaos/decode0,reclaim@55s+5s:chaos/decode1"},
			preemptions: 2, revocations: 2,
		},
	}
	for i := range cases {
		tc := &cases[i]
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, viol := range res.Violations {
				t.Errorf("invariant: %s", viol)
			}
			if res.Market == nil {
				t.Fatal("chaos run produced no market snapshot")
			}
			st := res.Market.Stats
			t.Logf("spec=%s requests=%d completed=%d failed=%d failovers=%d market=%+v",
				res.Spec, res.Requests, res.Completed, res.Failed, res.Failovers, st)
			if res.Completed+res.Failed != res.Requests {
				t.Fatalf("completed %d + failed %d != %d requests",
					res.Completed, res.Failed, res.Requests)
			}
			if st.Preemptions != tc.preemptions || st.Revocations != tc.revocations || st.Throttles != tc.throttles {
				t.Fatalf("market counters drifted: preemptions %d/%d revocations %d/%d throttles %d/%d",
					st.Preemptions, tc.preemptions, st.Revocations, tc.revocations, st.Throttles, tc.throttles)
			}
			if res.Failovers < tc.revocations {
				t.Errorf("%d revocations but only %d failovers — a revoked device was not failed over",
					tc.revocations, res.Failovers)
			}
			if tc.cfg.MarketNaive {
				if st.EvacuatedKVBytes != 0 {
					t.Errorf("naive run evacuated %d KV bytes — naive mode must not react to notices", st.EvacuatedKVBytes)
				}
			} else if st.LostKVBytes > 0 && st.EvacuatedKVBytes == 0 {
				t.Errorf("aware run lost %d KV bytes without evacuating any", st.LostKVBytes)
			}
		})
	}
}

// TestSpotChaosSweep is the random-schedule safety net with the spot market
// live: heterogeneous classes, price traces ticking, and schedules drawn from
// the full fault grammar (reclaim and throttle included), in both placement
// modes. Run under -race in CI.
func TestSpotChaosSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep skipped in -short mode")
	}
	for seed := int64(300); seed < 308; seed++ {
		cfg := Config{Seed: seed, RandomFaults: 6, MarketClasses: "H800,A10", Spot: true,
			MarketNaive: seed%2 == 1}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, viol := range res.Violations {
			t.Errorf("seed %d (spec %s): %s", seed, res.Spec, viol)
		}
		if res.Completed+res.Failed != res.Requests {
			t.Fatalf("seed %d: completed %d + failed %d != %d requests",
				seed, res.Completed, res.Failed, res.Requests)
		}
		if res.Market.Stats.PriceTicks == 0 {
			t.Errorf("seed %d: spot run saw no price ticks", seed)
		}
	}
}

// TestOverloadChaosAttributesFaults: on an overload run whose schedule fails
// KV transfers and model fetches, the SLO monitor must blame some missed
// tokens on the injected faults — its fault predicate has to see the run's
// fault runtime, or every fault-window miss is misfiled under queueing.
func TestOverloadChaosAttributesFaults(t *testing.T) {
	res, err := Run(Config{
		Seed: 7, Rate: 1.2, Horizon: 60 * time.Second, Overload: true,
		Spec: "fetchfail@10s+30s,xfer@20s+20s:chaos/decode0",
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, viol := range res.Violations {
		t.Errorf("invariant: %s", viol)
	}
	if res.SLO == nil {
		t.Fatal("overload run reported no SLO snapshot")
	}
	causes := res.SLO.Fleet.Causes
	t.Logf("missed=%d causes=%v", res.SLO.Fleet.TokensMissed, causes)
	if causes["fault"] == 0 {
		t.Fatalf("no missed token attributed to fault (causes %v)", causes)
	}
}

// The seed-5 partition-plus-crash schedule, which CI's chaos smoke job also
// runs through aegaeon-sim -chaos: every request completes through one
// failover.
func TestSingleStoreGoldenUnchanged(t *testing.T) {
	res, err := Run(Config{
		Seed:    5,
		Horizon: 120 * time.Second,
		Spec:    "partition@38s+6s,crash@40s:chaos/decode1",
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	if res.Completed != 59 || res.Failovers != 1 {
		t.Fatalf("completed=%d failovers=%d, want 59/1", res.Completed, res.Failovers)
	}
}
