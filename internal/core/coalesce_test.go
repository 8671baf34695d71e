package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"aegaeon/internal/decision"
	"aegaeon/internal/engine"
	"aegaeon/internal/fault"
	"aegaeon/internal/fleetobs"
	"aegaeon/internal/latency"
	"aegaeon/internal/metrics"
	"aegaeon/internal/model"
	"aegaeon/internal/obs"
	"aegaeon/internal/sim"
	"aegaeon/internal/slomon"
	"aegaeon/internal/workload"
)

// FuzzCoalescedRun checks decode runs against the one-step runs they
// coalesce, with every observer listening. Each input seeds a small system:
// 1–4 models on one prefill and one or two decode instances whose KV
// regions hold a few slabs, a trace with random output lengths whose
// same-model arrivals join turns in flight, and a client abort, a throttle
// window and either a decode crash or a transfer-fault window at random
// instants. It is served three times: with the collector, the SLO monitor,
// the decision journal and the fleet ledger on, once with runs capped at
// one step and once uncapped, which must give the same token timestamps,
// the same report and the same Perfetto, journal, SLO-snapshot and fleet
// bytes; and uncapped with every observer off, which must fire as many
// kernel events as with them on.
func FuzzCoalescedRun(f *testing.F) {
	for seed := int64(1); seed <= 12; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		defer func(cap int) { maxRunSteps = cap }(maxRunSteps)
		maxRunSteps = 1
		want := coalesceCase(t, seed, true)
		maxRunSteps = math.MaxInt
		got := coalesceCase(t, seed, true)
		off := coalesceCase(t, seed, false)
		for _, c := range []struct{ name, want, got string }{
			{"report", want.report, got.report},
			{"perfetto", want.perfetto, got.perfetto},
			{"journal", want.journal, got.journal},
			{"slo snapshot", want.slo, got.slo},
			{"fleet report", want.fleet, got.fleet},
		} {
			if c.got == c.want {
				continue
			}
			w, g := strings.Split(c.want, "\n"), strings.Split(c.got, "\n")
			for i := range min(len(w), len(g)) {
				if w[i] != g[i] {
					t.Fatalf("seed %d: coalesced runs' %s diverges from one-step runs' at line %d:\none-step:  %.300s\ncoalesced: %.300s",
						seed, c.name, i, w[i], g[i])
				}
			}
			t.Fatalf("seed %d: %s has %d lines one step at a time, %d coalesced", seed, c.name, len(w), len(g))
		}
		if got.events > want.events || (got.coalesced && got.events == want.events) {
			t.Fatalf("seed %d: %d events coalesced (runs of more than one step: %v), %d one step at a time",
				seed, got.events, got.coalesced, want.events)
		}
		if off.events != got.events {
			t.Fatalf("seed %d: %d events with every observer off, %d with all on", seed, off.events, got.events)
		}
	})
}

// caseResult is what one serve of a coalesceCase leaves: its report (every
// request's token timestamps and end state, the system's counters and the
// engines' and KV managers' stats), the observers' exports, the kernel
// events fired and whether any run took more than one step.
type caseResult struct {
	report, perfetto, journal, slo, fleet string
	events                                uint64
	coalesced                             bool
}

// coalesceCase serves the system seed draws, with every observer on or
// with all of them off.
func coalesceCase(t *testing.T, seed int64, observed bool) caseResult {
	rng := rand.New(rand.NewSource(seed))
	models := model.MarketMix(1 + rng.Intn(4))
	nDecode := 1 + rng.Intn(2)

	// A KV region of a few slabs, which the largest request fills to three
	// quarters: batches contend for blocks, and appends run out of them.
	slabs := int64(2 + rng.Intn(6))
	slabTokens := math.MaxInt
	for _, m := range models {
		perBlock := m.ShardKVShape(1).BytesPerToken() * 16
		slabTokens = min(slabTokens, int(engine.KVSlabBytes/perBlock)*16)
	}
	maxTokens := slabTokens * int(slabs) * 3 / 4
	_, shard := LargestShard(models, 1)
	prof := *latency.H800()
	prof.VRAMBytes = int64(float64(shard+shard/16+slabs*engine.KVSlabBytes+engine.KVSlabBytes/2) / 0.9)

	se := sim.NewEngine(seed)
	cfg := testConfig(models, engine.AllOptimizations(), 1, nDecode)
	cfg.Prof = &prof
	faults := fault.New(se, seed)
	cfg.Faults = faults
	if observed {
		cfg.Obs = obs.New(obs.Options{})
		cfg.SLOMon = slomon.New(slomon.Config{Source: cfg.Obs, FaultActive: func(model, instance string) bool {
			return faults.TransferFailing(instance) || faults.FetchFailing(model)
		}})
		cfg.Decisions = decision.New(decision.Options{})
		cfg.Fleet = fleetobs.New(se)
	}
	sys := NewSystem(se, cfg)
	sys.LogTokens() // the digest holds every token's time

	horizon := 8 * time.Second
	at := func() sim.Time { return sim.Time(rng.Int63n(int64(horizon))) }
	trace := make([]workload.Request, 4+rng.Intn(40))
	for i := range trace {
		in := 16 + rng.Intn(max(maxTokens/2-16, 1))
		trace[i] = workload.Request{
			ID:           fmt.Sprintf("r%02d", i),
			Model:        models[rng.Intn(len(models))].Name,
			Arrival:      at(),
			InputTokens:  in,
			OutputTokens: 1 + rng.Intn(max(maxTokens-in, 1)),
		}
	}
	if err := sys.Submit(trace); err != nil {
		t.Fatal(err)
	}
	victim := sys.Requests()[rng.Intn(len(trace))]
	se.At(at(), func() { sys.Abort(victim) })
	throttled := fmt.Sprintf("decode%d", rng.Intn(nDecode))
	factor, window := 1.2+2*rng.Float64(), time.Duration(rng.Int63n(int64(5*time.Second)))
	se.At(at(), func() {
		if err := sys.ThrottleInstance(throttled, factor, window); err != nil {
			t.Error(err)
		}
	})
	name := fmt.Sprintf("decode%d", rng.Intn(nDecode))
	if rng.Intn(2) == 0 {
		crashAt := at()
		se.At(crashAt, func() {
			if err := sys.CrashInstance(name); err != nil {
				t.Error(err)
			}
		})
		se.At(crashAt+sim.Time(rng.Int63n(int64(time.Second))), func() { sys.RecoverOrphansOf(name) })
	} else {
		window := time.Duration(rng.Int63n(int64(3 * time.Second)))
		se.At(at(), func() { faults.FailTransfers(name, window) })
	}

	for n := 0; se.Step(); n++ {
		if n > 2_000_000 {
			t.Fatalf("seed %d: no drain after %d events at %v", seed, n, se.Now())
		}
	}
	sys.Finalize(se.Now())

	var res caseResult
	var b strings.Builder
	for _, r := range sys.Requests() {
		fmt.Fprintf(&b, "%s outcome=%s finished=%d exec=%d tokens=%v\n",
			r.ID, r.Outcome, r.finished, r.decodeExec, r.TokenTimes)
	}
	fmt.Fprintf(&b, "end=%d completed=%d failed=%d orphans=%d attainment=%v\n",
		se.Now(), sys.Completed(), sys.FailedRequests(), sys.OrphanedRequests(), sys.Attainment())
	for s := metrics.PrefillWaiting; s <= metrics.DataOverhead; s++ {
		fmt.Fprintf(&b, "%v=%d\n", s, sys.Breakdown().Total(s))
	}
	for _, e := range sys.Engines() {
		st := *e.Stats()
		res.coalesced = res.coalesced || st.DecodeRuns < st.DecodeSteps
		st.DecodeRuns = 0 // the one quantity runs change
		fmt.Fprintf(&b, "%s %+v kv=%+v used=%d pool=%+v\n", e.Name, st, e.KV().Stats(),
			e.KV().GPUCache.Pool().UsedBytes(), e.KV().GPUCache.Pool().Stats())
	}
	fmt.Fprintf(&b, "cpu=%+v faults=%+v\n", sys.CPUKVStats(), faults.Snapshot())
	res.report, res.events = b.String(), se.Processed()
	if observed {
		var buf bytes.Buffer
		if err := cfg.Obs.PerfettoTrace().Write(&buf, nil); err != nil {
			t.Fatal(err)
		}
		res.perfetto = buf.String()
		buf.Reset()
		if err := cfg.Decisions.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		res.journal = buf.String()
		res.slo = jsonString(t, cfg.SLOMon.Snapshot(se.Now()))
		fleet := cfg.Fleet.Snapshot(se.Now())
		res.fleet = jsonString(t, fleet) + "\n" + fleet.CSV()
	}
	return res
}

// jsonString is v marshalled as indented JSON, one field a line.
func jsonString(t *testing.T, v any) string {
	t.Helper()
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRunBoundaryInstant pins the tie rule of decode runs: at the exact
// instant of a step boundary the boundary has passed. At the run's start,
// step 1 has started and no step has ended; at step 1's end, step 1 has
// ended and step 2, which starts there, has started. So an abort of a run
// member, or a join of a same-model request, at either instant keeps the
// tokens of the steps ended by then, leaves the appends of the steps
// started by then in place, and cuts the run at the end of the step in
// flight, which still produces its tokens for the members left in it.
func TestRunBoundaryInstant(t *testing.T) {
	for _, tc := range []struct {
		name     string
		boundary int // 0: the run's start; 1: step 1's end and step 2's start
		join     bool
	}{
		{"abort at run start", 0, false},
		{"abort at step end", 1, false},
		{"join at run start", 0, true},
		{"join at step end", 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := model.MarketMix(1)[0]
			se := sim.NewEngine(1)
			sys := NewSystem(se, testConfig([]*model.Model{m}, engine.AllOptimizations(), 1, 1))
			sys.LogTokens()
			if err := sys.Submit([]workload.Request{
				{ID: "a", Model: m.Name, InputTokens: 64, OutputTokens: 200},
				{ID: "b", Model: m.Name, Arrival: 2 * sim.Time(time.Second), InputTokens: 96, OutputTokens: 200},
			}); err != nil {
				t.Fatal(err)
			}
			d := sys.decodes[0]
			for d.runSteps < 3 || d.runStep > 0 || d.run.Next == d.run.End || len(d.runReqs) < 2 {
				if !se.Step() {
					t.Fatal("drained before a run of three steps over both requests")
				}
			}
			if se.Now() != d.stepStart {
				t.Fatalf("run started at %v, observed at %v", d.stepStart, se.Now())
			}
			members := slices.Clone(d.runReqs)
			first := d.run.Next
			tokens, kv := map[*Request]int{}, map[*Request]int{}
			for _, r := range members {
				tokens[r], kv[r] = r.Generated(), r.Seq.Tokens()
			}
			at := d.stepStart
			if tc.boundary == 1 {
				at = first
			}
			started, stamped := 1+tc.boundary, tc.boundary
			victim := members[0]
			var joiner *Request
			var cutEnd sim.Time
			se.At(at, func() {
				cutEnd = d.run.Next // the end of the step in flight
				if tc.join {
					joiner = prefilledAt(t, sys, m, at)
					sys.dispatchDecode(joiner)
					if !slices.Contains(d.current.reqs, joiner) {
						t.Fatal("the request did not join the batch in flight")
					}
				} else {
					sys.Abort(victim)
				}
				if d.runStep != stamped || d.run.End != cutEnd {
					t.Errorf("after the touch: step %d in flight, run to %v; want step %d, cut at %v",
						d.runStep, d.run.End, stamped, cutEnd)
				}
				for _, r := range members {
					if r.Generated() != tokens[r]+stamped {
						t.Errorf("%s: %d tokens after the touch, want %d", r.ID, r.Generated(), tokens[r]+stamped)
					}
					if stamped > 0 && r.LastToken() != first {
						t.Errorf("%s: step 1's token at %v, want %v", r.ID, r.LastToken(), first)
					}
					if !r.terminal() && r.Seq.Tokens() != kv[r]+started-1 {
						t.Errorf("%s: %d KV tokens after the touch, want %d", r.ID, r.Seq.Tokens(), kv[r]+started-1)
					}
				}
			})
			for se.Step() {
			}
			sys.Finalize(se.Now())

			for _, r := range members {
				if r == victim && !tc.join {
					if r.Outcome != decision.OutcomeAborted || r.Generated() != tokens[r]+stamped {
						t.Errorf("victim: outcome %q with %d tokens, want %d", r.Outcome, r.Generated(), tokens[r]+stamped)
					}
					continue
				}
				if r.Outcome != decision.OutcomeDone || r.Generated() != r.OutputTokens {
					t.Fatalf("%s: outcome %q with %d of %d tokens", r.ID, r.Outcome, r.Generated(), r.OutputTokens)
				}
				if got := r.TokenTimes[tokens[r]+started-1]; got != cutEnd {
					t.Errorf("%s: the step in flight's token at %v, want the cut run's end %v", r.ID, got, cutEnd)
				}
			}
			if tc.join {
				if joiner.Outcome != decision.OutcomeDone || joiner.Generated() != joiner.OutputTokens {
					t.Fatalf("joiner: outcome %q with %d of %d tokens", joiner.Outcome, joiner.Generated(), joiner.OutputTokens)
				}
				if joiner.TokenTimes[1] <= cutEnd {
					t.Errorf("joiner's first decode token at %v, inside the cut run ending %v", joiner.TokenTimes[1], cutEnd)
				}
			}
		})
	}
}

// prefilledAt returns a fresh request for m in the state the prefill path
// hands to decode at now: its prompt KV and first token made on the
// prefill instance, and the KV offloading to the CPU cache.
func prefilledAt(t *testing.T, sys *System, m *model.Model, now sim.Time) *Request {
	t.Helper()
	id := sys.models[m.Name]
	r := newRequest(workload.Request{ID: "joiner", Model: m.Name, Arrival: now, InputTokens: 80, OutputTokens: 12},
		sys.ids.Model(id), id)
	r.Deadline = sys.sloFor(id).Deadline(now, 0)
	kv := sys.prefills[0].eng.KV()
	seq, err := kv.NewSequence(r.ID, m.ShardKVShape(sys.cfg.TP), r.InputTokens+1)
	if err != nil {
		t.Fatal(err)
	}
	r.Seq = seq
	r.recordToken(sys, now)
	if _, err := kv.SwapOut(seq); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRunCutByAllocation checks that a KV allocation on the instance in
// the middle of a run cuts it at the end of the step in flight exactly when
// it leaves the pool short of the blocks the run's later steps append, and
// that the run's members then finish as planned.
func TestRunCutByAllocation(t *testing.T) {
	for _, short := range []bool{false, true} {
		t.Run(fmt.Sprintf("short=%v", short), func(t *testing.T) {
			m := model.MarketMix(1)[0]
			se := sim.NewEngine(1)
			sys := NewSystem(se, testConfig([]*model.Model{m}, engine.AllOptimizations(), 1, 1))
			if err := sys.Submit([]workload.Request{
				{ID: "a", Model: m.Name, InputTokens: 64, OutputTokens: 200},
				{ID: "b", Model: m.Name, Arrival: 2 * sim.Time(time.Second), InputTokens: 96, OutputTokens: 200},
			}); err != nil {
				t.Fatal(err)
			}
			d := sys.decodes[0]
			for d.runSteps < 40 || d.runStep > 0 || d.run.Next == d.run.End || len(d.runReqs) < 2 {
				if !se.Step() {
					t.Fatal("drained before a run of forty steps over both requests")
				}
			}
			members := slices.Clone(d.runReqs)
			inFlight := d.run.Next
			kv := d.eng.KV()
			need, block := 0, len(d.runFill)
			for i := 1; i < d.runSteps; i++ {
				need += d.runFill[i%block]
			}
			if need == 0 {
				t.Fatal("the run appends no block after its first step")
			}
			// A sequence that takes all the free blocks but need, or one more.
			blocks := kv.FreeBlocks(members[0].Seq) - need
			if short {
				blocks++
			}
			pkv := sys.prefills[0].eng.KV()
			seq, err := pkv.NewSequence("foreign", m.ShardKVShape(sys.cfg.TP), blocks*kv.GPUCache.BlockTokens())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := pkv.SwapOut(seq); err != nil {
				t.Fatal(err)
			}
			planned := d.run.End
			foreign := &Request{ID: "foreign", Seq: seq}
			se.At(se.Now()+1, func() {
				d.swapInIfNeeded(foreign, d.current)
				want := planned
				if short {
					want = inFlight
				}
				if d.run.End != want {
					t.Errorf("run ends at %v after the swap-in, want %v (planned %v)", d.run.End, want, planned)
				}
			})
			for se.Step() {
			}
			for _, r := range members {
				if r.Outcome != decision.OutcomeDone || r.Generated() != r.OutputTokens {
					t.Errorf("%s: outcome %q with %d of %d tokens", r.ID, r.Outcome, r.Generated(), r.OutputTokens)
				}
			}
		})
	}
}
