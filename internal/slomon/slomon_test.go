package slomon

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"aegaeon/internal/model"
	"aegaeon/internal/slo"
)

// testModels is how many models testMonitor names: m0, m1, ... under ids
// 1, 2, ....
const testModels = 256

// testMonitor is New with models m0..m255 named, as a system names its
// models when it is built.
func testMonitor(cfg Config) *Monitor { return testMonitorSamples(cfg, quantileSamples) }

// testMonitorSamples is testMonitor with reservoirs of the given size.
func testMonitorSamples(cfg Config, samples int) *Monitor {
	m := newMonitor(cfg, samples)
	for i := 0; i < testModels; i++ {
		m.NameModel(mid(fmt.Sprintf("m%d", i)), fmt.Sprintf("m%d", i))
	}
	return m
}

// mid returns the id testMonitor names model "m<i>" under.
func mid(name string) model.ID {
	var i int
	if _, err := fmt.Sscanf(name, "m%d", &i); err != nil || i >= testModels {
		panic("slomon test: bad model name " + name)
	}
	return model.ID(i + 1)
}

func TestNilMonitorIsSafe(t *testing.T) {
	var m *Monitor
	m.ObserveToken(TokenObs{Model: mid("m0")})
	m.ObserveDropped(mid("m0"), "r1", "g0", 0, time.Second, 2*time.Second)
	m.ObserveVerdict(mid("m0"), slo.Judge(slo.Default(), 0, []time.Duration{time.Second}))
	m.Advance(time.Second)
	if m.Snapshot(time.Second) != nil {
		t.Fatal("nil monitor snapshot != nil")
	}
	if m.FleetAlert() != AlertOK {
		t.Fatal("nil monitor alert != ok")
	}
}

func TestMonitorCountsAndCauseSum(t *testing.T) {
	m := testMonitor(Config{Objective: 0.99})
	// 3 met, 2 missed (source nil -> unknown cause), 1 dropped.
	for i := 0; i < 3; i++ {
		at := time.Duration(i+1) * time.Second
		m.ObserveToken(TokenObs{Model: mid("m0"), Request: "r1", Index: i,
			Deadline: at + time.Second, At: at, Prev: at - time.Second})
	}
	for i := 0; i < 2; i++ {
		at := time.Duration(i+4) * time.Second
		m.ObserveToken(TokenObs{Model: mid("m0"), Request: "r1", Index: i + 3,
			Deadline: at - time.Second, At: at, Prev: at - time.Second})
	}
	m.ObserveDropped(mid("m0"), "r2", "g0", 0, 5*time.Second, 6*time.Second)

	snap := m.Snapshot(6 * time.Second)
	if snap.Fleet.TokensMet != 3 || snap.Fleet.TokensMissed != 3 {
		t.Fatalf("fleet = %d met / %d missed, want 3/3", snap.Fleet.TokensMet, snap.Fleet.TokensMissed)
	}
	if n := snap.Fleet.Causes["unknown"]; n != 3 {
		t.Fatalf("unknown causes = %d, want 3 (nil source)", n)
	}
	if err := Validate(snap); err != nil {
		t.Fatal(err)
	}
	// Model scope mirrors the fleet for a single-model stream.
	if len(snap.Models) != 1 || snap.Models[0].Model != "m0" {
		t.Fatalf("models = %+v", snap.Models)
	}
	if snap.Models[0].TokensMissed != 3 {
		t.Fatalf("model missed = %d, want 3", snap.Models[0].TokensMissed)
	}
}

func TestMonitorTTFTAndTBTSketches(t *testing.T) {
	m := testMonitor(Config{})
	// Token 0 at 2s after a 0s arrival: TTFT sample of 2s.
	m.ObserveToken(TokenObs{Model: mid("m0"), Request: "r1", Index: 0,
		Arrival: 0, Deadline: 10 * time.Second, At: 2 * time.Second})
	// Token 1 100ms later: TBT sample of 100ms.
	m.ObserveToken(TokenObs{Model: mid("m0"), Request: "r1", Index: 1,
		Arrival: 0, Deadline: 10 * time.Second, At: 2100 * time.Millisecond, Prev: 2 * time.Second})
	snap := m.Snapshot(3 * time.Second)
	if snap.Fleet.TTFT.Count != 1 || snap.Fleet.TTFT.P50S < 1.9 || snap.Fleet.TTFT.P50S > 2.1 {
		t.Fatalf("TTFT stats = %+v, want one ~2s sample", snap.Fleet.TTFT)
	}
	if snap.Fleet.TBT.Count != 1 || snap.Fleet.TBT.P50S < 0.09 || snap.Fleet.TBT.P50S > 0.11 {
		t.Fatalf("TBT stats = %+v, want one ~100ms sample", snap.Fleet.TBT)
	}
}

func TestMonitorCumulativeMirrorsTracker(t *testing.T) {
	// The same verdicts folded into a plain tracker and into the monitor
	// must agree exactly — this is the convergence contract behind
	// /debug/slo's cumulative block.
	m := testMonitor(Config{})
	ref := slo.NewTracker()
	s := slo.Default()
	times := [][]time.Duration{
		{time.Second, 1100 * time.Millisecond},
		{20 * time.Second}, // TTFT miss
		{500 * time.Millisecond, 600 * time.Millisecond, 700 * time.Millisecond},
		nil, // failed before its first token
	}
	for i, ts := range times {
		v := slo.Judge(s, 0, ts)
		if ts == nil {
			v.Dropped = 1
			m.ObserveDropped(mid("m0"), "rX", "", 0, time.Second, 2*time.Second)
		}
		m.ObserveVerdict(mid(fmt.Sprintf("m%d", i%2)), v)
		ref.Add(v)
	}

	snap := m.Snapshot(30 * time.Second)
	cum := snap.Fleet.Cumulative
	if cum == nil {
		t.Fatal("no cumulative block")
	}
	if cum.Requests != ref.Requests() {
		t.Fatalf("requests %d != tracker %d", cum.Requests, ref.Requests())
	}
	refMet, refMissed := ref.Tokens()
	if cum.TokensMet != refMet || cum.TokensMissed != refMissed {
		t.Fatalf("tokens %d/%d != tracker %d/%d", cum.TokensMet, cum.TokensMissed, refMet, refMissed)
	}
	if cum.Attainment != ref.Attainment() {
		t.Fatalf("attainment %v != tracker %v", cum.Attainment, ref.Attainment())
	}
	if cum.TTFTAttainment != ref.TTFTAttainment() {
		t.Fatalf("TTFT attainment %v != tracker %v", cum.TTFTAttainment, ref.TTFTAttainment())
	}
}

func TestDroppedFutureDeadlineBucketsAtJudgement(t *testing.T) {
	// A failed request's future tokens are judged lost *now*; their misses
	// must land in the current bucket, not a future one the window will
	// never reach consistently.
	m := testMonitor(Config{})
	m.ObserveDropped(mid("m0"), "r1", "", 0, 100*time.Second, 3*time.Second)
	snap := m.Snapshot(3 * time.Second)
	var fast WindowStats
	for _, w := range snap.Fleet.Windowed {
		if w.Window == "fast" {
			fast = w
		}
	}
	if fast.Missed != 1 {
		t.Fatalf("fast window missed = %d, want the future-deadline drop counted now", fast.Missed)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	m := testMonitor(Config{})
	m.ObserveToken(TokenObs{Model: mid("m0"), Request: "r1", Index: 0,
		Deadline: time.Second, At: 2 * time.Second})
	snap := m.Snapshot(2 * time.Second)
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if err := Validate(&back); err != nil {
		t.Fatalf("round-tripped snapshot invalid: %v", err)
	}
	if back.Fleet.TokensMissed != 1 {
		t.Fatalf("round trip lost counts: %+v", back.Fleet)
	}
}

func TestValidateRejectsBrokenSnapshots(t *testing.T) {
	good := func() *Snapshot {
		m := testMonitor(Config{})
		m.ObserveToken(TokenObs{Model: mid("m0"), Request: "r1",
			Deadline: time.Second, At: 2 * time.Second})
		return m.Snapshot(2 * time.Second)
	}
	cases := []struct {
		name  string
		mutil func(*Snapshot)
	}{
		{"wrong version", func(s *Snapshot) { s.SchemaVersion = 99 }},
		{"bad objective", func(s *Snapshot) { s.Objective = 1.5 }},
		{"missing window", func(s *Snapshot) { s.Windows = s.Windows[:2] }},
		{"bad alert state", func(s *Snapshot) { s.Fleet.Alert.State = "panic" }},
		{"cause sum mismatch", func(s *Snapshot) { s.Fleet.Causes["unknown"] = 42 }},
		{"unknown cause", func(s *Snapshot) {
			delete(s.Fleet.Causes, "unknown")
			s.Fleet.Causes["gremlins"] = 1
		}},
		{"unnamed model scope", func(s *Snapshot) {
			s.Models = append(s.Models, ScopeSnapshot{})
		}},
		{"inconsistent attainment", func(s *Snapshot) { s.Fleet.Windowed[0].Attainment = 0.123 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := good()
			tc.mutil(s)
			if err := Validate(s); err == nil {
				t.Fatal("validation passed on a broken snapshot")
			}
		})
	}
	if err := Validate(nil); err == nil {
		t.Fatal("nil snapshot validated")
	}
}

// TestCumulativeByModel: verdicts land in their model's cumulative block
// and in the fleet's, and a dropped token is a missed token of its
// request, never a request of its own.
func TestCumulativeByModel(t *testing.T) {
	m := testMonitor(Config{})
	s := slo.Default()
	dropped := slo.Judge(s, 0, nil)
	dropped.Dropped = 1
	for _, o := range []struct {
		model string
		v     slo.Verdict
	}{
		{"m2", dropped},
		{"m0", slo.Judge(s, 0, []time.Duration{time.Second})},
		{"m0", slo.Judge(s, 0, []time.Duration{20 * time.Second})}, // miss
		{"m1", slo.Judge(s, 0, []time.Duration{time.Second})},
	} {
		// Core feeds the windows every token it judges; they open the
		// model's scope.
		m.ObserveToken(TokenObs{Model: mid(o.model), At: time.Second, Deadline: 10 * time.Second})
		m.ObserveVerdict(mid(o.model), o.v)
	}
	snap := m.Snapshot(time.Second)
	got := make(map[string]*CumulativeStats)
	for _, sc := range snap.Models {
		got[sc.Model] = sc.Cumulative
	}
	for model, want := range map[string]CumulativeStats{
		"m0": {Requests: 2, TokensMet: 1, TokensMissed: 1, Attainment: 0.5},
		"m1": {Requests: 1, TokensMet: 1, Attainment: 1},
		"m2": {Requests: 1, TokensMissed: 1, Attainment: 0},
	} {
		c := got[model]
		if c == nil || c.Requests != want.Requests || c.TokensMet != want.TokensMet ||
			c.TokensMissed != want.TokensMissed || c.Attainment != want.Attainment {
			t.Errorf("%s cumulative = %+v, want %+v", model, c, want)
		}
	}
	if c := snap.Fleet.Cumulative; c == nil || c.Requests != 4 || c.TokensMet != 2 || c.TokensMissed != 2 {
		t.Errorf("fleet cumulative = %+v, want 4 requests, 2 met, 2 missed", c)
	}
}

// TestSnapshotModelsSorted: a snapshot lists every model scope once,
// sorted by name, whatever order the models were first seen in.
func TestSnapshotModelsSorted(t *testing.T) {
	m := testMonitor(Config{})
	s := slo.Default()
	for _, model := range []string{"m2", "m0", "m3", "m1", "m0"} {
		m.ObserveToken(TokenObs{Model: mid(model), At: time.Second, Deadline: 10 * time.Second})
		m.ObserveVerdict(mid(model), slo.Judge(s, 0, []time.Duration{time.Second}))
	}
	var order []string
	for _, sc := range m.Snapshot(time.Second).Models {
		order = append(order, sc.Model)
	}
	if want := []string{"m0", "m1", "m2", "m3"}; !slices.Equal(order, want) {
		t.Fatalf("model scopes = %v, want sorted %v", order, want)
	}
}

// TestConfigDefaultsAndMonotoneWindows: a zero objective defaults to 0.99,
// and a snapshot reports the 1m/5m/30m burn-rate windows, fast to slow.
func TestConfigDefaultsAndMonotoneWindows(t *testing.T) {
	m := testMonitor(Config{})
	if got := m.Config().Objective; got != 0.99 {
		t.Fatalf("default objective = %v, want 0.99", got)
	}
	var got []float64
	for _, w := range m.Snapshot(0).Windows {
		got = append(got, w.Seconds)
	}
	if want := []float64{60, 300, 1800}; !slices.Equal(got, want) {
		t.Fatalf("window lengths = %v s, want %v", got, want)
	}
}

// windowSums reads a scope's three window sums without advancing anything.
func windowSums(s *scope) (met, missed [numWindows]uint64) {
	for i := range met {
		met[i], missed[i] = s.ring.sums(i)
	}
	return met, missed
}

// checkModelsSumToFleet asserts that, in every window, the fleet's met and
// missed counts equal the sums over the model scopes.
func checkModelsSumToFleet(t *testing.T, m *Monitor, label string) {
	t.Helper()
	var met, missed [numWindows]uint64
	for _, s := range m.models {
		if s == nil {
			continue
		}
		sm, sx := windowSums(s)
		for i := range met {
			met[i] += sm[i]
			missed[i] += sx[i]
		}
	}
	fm, fx := windowSums(m.fleet)
	for i := range met {
		if fm[i] != met[i] || fx[i] != missed[i] {
			t.Fatalf("%s: %s window: fleet %d/%d, models sum to %d/%d",
				label, windowNames[i], fm[i], fx[i], met[i], missed[i])
		}
	}
}

// TestLateFirstObservationMatchesFleet is a model first seen through a miss
// judged behind the monitor clock: its copy of the miss must land in the
// same (clamped) bucket as the fleet's, not in a ring started at the old
// bucket that the next advance wipes.
func TestLateFirstObservationMatchesFleet(t *testing.T) {
	m := testMonitor(Config{})
	m.ObserveToken(TokenObs{Model: mid("m0"), Request: "r0",
		Deadline: 41 * time.Minute, At: 40 * time.Minute})
	m.ObserveDropped(mid("m1"), "r1", "g0", 0, 2*time.Second, 3*time.Second)
	snap := m.Snapshot(40 * time.Minute)
	for i, fw := range snap.Fleet.Windowed {
		var met, missed uint64
		for _, sc := range snap.Models {
			met += sc.Windowed[i].Met
			missed += sc.Windowed[i].Missed
		}
		if fw.Met != met || fw.Missed != missed {
			t.Errorf("%s window: fleet %d/%d, models sum to %d/%d", fw.Window, fw.Met, fw.Missed, met, missed)
		}
	}
	// The miss clamps into the oldest retained bucket, which only the slow
	// window covers.
	if slow := snap.Fleet.Windowed[slowWin]; slow.Met != 1 || slow.Missed != 1 {
		t.Errorf("fleet slow window = %d/%d, want 1/1", slow.Met, slow.Missed)
	}
}

// driveMonitor feeds m a seeded random sequence of public calls: tokens on
// and behind the clock from models that keep appearing, drops judged with
// deadlines far behind the clock or in the future, Advance calls, idle gaps
// longer than the ring, and snapshots behind the clock. check runs after
// every call.
func driveMonitor(t *testing.T, rng *rand.Rand, m *Monitor, ops int, check func(op string)) {
	span := slowWindow
	jitter := func(d time.Duration) time.Duration { return time.Duration(rng.Int63n(int64(d))) }
	for i := 0; i < ops; i++ {
		model := fmt.Sprintf("m%d", rng.Intn(1+i/25))
		// Mostly just ahead of the clock, sometimes behind it.
		at := max(m.now+jitter(2*bucket)-bucket/2, 0)
		var op string
		switch r := rng.Intn(12); {
		case r < 6:
			op = "token"
			m.ObserveToken(TokenObs{Model: mid(model), Request: "r", Index: rng.Intn(3),
				Deadline: at + jitter(bucket) - bucket/3, At: at, Prev: at - bucket/10})
		case r < 8:
			op = "drop"
			deadline := max(at-jitter(2*span), 0)
			if rng.Intn(3) == 0 {
				deadline = at + span
			}
			m.ObserveDropped(mid(model), "r", "g0", 0, deadline, at)
		case r < 10:
			op = "advance"
			m.Advance(at)
		case r == 10:
			op = "idle gap"
			m.Advance(m.now + span + jitter(span))
		default:
			op = "stale snapshot"
			if err := Validate(m.Snapshot(max(m.now-jitter(span), 0))); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
		check(op)
	}
}

// TestFleetWindowsEqualModelSum: every token lands in the fleet scope and in
// exactly one model scope, so after every call each fleet window must equal
// the sum of the model windows.
func TestFleetWindowsEqualModelSum(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		m := testMonitor(Config{})
		step := 0
		driveMonitor(t, rand.New(rand.NewSource(seed)), m, 400, func(op string) {
			checkModelsSumToFleet(t, m, fmt.Sprintf("seed %d step %d (%s)", seed, step, op))
			step++
		})
	}
}

// TestRingHeadsTrackClock is the invariant lazy advance rests on: after
// every public call, every started ring's head is the bucket of the monitor
// clock, so the rings a call did not touch have nothing to rotate.
func TestRingHeadsTrackClock(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		m := testMonitor(Config{})
		step := 0
		driveMonitor(t, rand.New(rand.NewSource(seed)), m, 400, func(op string) {
			want := int64(m.now / bucket)
			if h := m.fleet.ring.head; h >= 0 && h != want {
				t.Fatalf("seed %d step %d (%s): fleet head %d, clock bucket %d", seed, step, op, h, want)
			}
			for _, s := range m.models {
				if s == nil {
					continue
				}
				if h := s.ring.head; h >= 0 && h != want {
					t.Fatalf("seed %d step %d (%s): model %d head %d, clock bucket %d", seed, step, op, s.id, h, want)
				}
			}
			step++
		})
	}
}

// randomSteps builds a seeded sequence of decode steps: one model and one
// time per step, like core's, plus an occasional step that mixes models and
// times. The clock crosses bucket and epoch boundaries, sometimes jumps past
// the ring, and sometimes lands behind the last step; the miss rate swings
// between calm and overloaded phases so alerts page and recover.
func randomSteps(rng *rand.Rand, steps int) [][]TokenObs {
	var out [][]TokenObs
	var clock time.Duration
	for s := 0; s < steps; s++ {
		switch r := rng.Intn(40); {
		case r == 0:
			clock += slowWindow + time.Minute // idle gap past the slow window
		case r < 4:
			clock -= time.Duration(rng.Int63n(int64(2 * time.Second))) // behind the clock
		default:
			clock += time.Duration(rng.Int63n(int64(4 * time.Second)))
		}
		clock = max(clock, 0)
		missRate := 0.02
		if (s/60)%2 == 1 {
			missRate = 0.6
		}
		model := fmt.Sprintf("m%d", rng.Intn(5))
		step := make([]TokenObs, 1+rng.Intn(8))
		mixed := rng.Intn(10) == 0
		for i := range step {
			at := clock
			if mixed {
				model = fmt.Sprintf("m%d", rng.Intn(5))
				at += time.Duration(rng.Intn(3)) * 700 * time.Millisecond
			}
			dl := at + time.Second
			if rng.Float64() < missRate {
				dl = at - time.Duration(1+rng.Int63n(int64(time.Second)))
			}
			idx := rng.Intn(4) // index 0 feeds TTFT, the rest TBT
			step[i] = TokenObs{Model: mid(model), Request: fmt.Sprintf("r%d", rng.Intn(50)),
				Instance: fmt.Sprintf("g%d", rng.Intn(2)), Index: idx,
				Arrival: max(at-2*time.Second, 0), Deadline: dl, At: at,
				Prev: max(at-time.Duration(rng.Int63n(int64(200*time.Millisecond))), 0)}
		}
		out = append(out, step)
	}
	return out
}

// TestObserveTokensMatchesObserveToken: feeding a step's tokens in one call
// leaves exactly the state that one call per token leaves — windows, stream
// totals, causes, quantile reservoirs and alert transitions — checked through
// the full snapshot after every few steps.
func TestObserveTokensMatchesObserveToken(t *testing.T) {
	cfg := Config{FaultActive: func(model, instance string) bool { return model == "m1" && instance == "g1" }}
	transitions := 0
	for seed := int64(1); seed <= 20; seed++ {
		// Small reservoirs, so replacement is exercised.
		perToken, perStep := testMonitorSamples(cfg, 16), testMonitorSamples(cfg, 16)
		for i, step := range randomSteps(rand.New(rand.NewSource(seed)), 600) {
			for _, o := range step {
				perToken.ObserveToken(o)
			}
			perStep.ObserveTokens(step)
			if i%7 != 0 {
				continue
			}
			a, _ := json.Marshal(perToken.Snapshot(0))
			b, _ := json.Marshal(perStep.Snapshot(0))
			if string(a) != string(b) {
				t.Fatalf("seed %d step %d: snapshots differ\nper token: %s\nper step:  %s", seed, i, a, b)
			}
		}
		snap := perStep.Snapshot(0)
		transitions += len(snap.Fleet.Alert.Transitions)
		if snap.Fleet.Causes["fault"] == 0 || snap.Fleet.Causes["unknown"] == 0 {
			t.Fatalf("seed %d: causes %v, want fault and unknown misses", seed, snap.Fleet.Causes)
		}
	}
	if transitions == 0 {
		t.Fatal("no alert transitions: the sequences never paged")
	}
}

// TestObserveTokensAllocs: a warmed monitor judges a step without
// allocating.
func TestObserveTokensAllocs(t *testing.T) {
	m := testMonitor(Config{})
	step := make([]TokenObs, 16)
	for i := range step {
		at := 5 * time.Second
		step[i] = TokenObs{Model: mid("m0"), Request: "r", Instance: "g0", Index: i % 4,
			Arrival: time.Second, Deadline: at + time.Duration(i%3-1)*time.Second,
			At: at, Prev: at - 40*time.Millisecond}
	}
	for i := 0; i < quantileSamples; i++ {
		m.ObserveTokens(step) // fill the reservoirs
	}
	if n := testing.AllocsPerRun(100, func() { m.ObserveTokens(step) }); n != 0 {
		t.Fatalf("ObserveTokens allocates %.1f times per step, want 0", n)
	}
}

// BenchmarkObserveTokens is the per-step counterpart of BenchmarkObserveToken:
// one op is one decode step of 8 tokens from one model, models take turns,
// and the clock moves 1ms per step. ns/token compares with
// BenchmarkObserveToken's ns/op.
func BenchmarkObserveTokens(b *testing.B) {
	const batch = 8
	for _, n := range []int{1, 40, 400} {
		b.Run(fmt.Sprintf("models=%d", n), func(b *testing.B) {
			m := New(Config{})
			for i := 1; i <= n; i++ {
				m.NameModel(model.ID(i), fmt.Sprintf("m%03d", i))
				m.ObserveToken(TokenObs{Model: model.ID(i), Request: "r", Deadline: time.Second})
			}
			step := make([]TokenObs, batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at := time.Duration(i) * time.Millisecond
				for j := range step {
					step[j] = TokenObs{Model: model.ID(1 + i%n), Request: "r", Index: 1 + (i+j)%64,
						Deadline: at + time.Second, At: at, Prev: at - time.Millisecond}
				}
				m.ObserveTokens(step)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/token")
		})
	}
}

// BenchmarkObserveToken is the monitor's per-token cost at growing model
// counts: models take turns, and the clock moves 1ms per token, so a bucket
// rotation (which steps every scope's alerts) comes once per 1000 tokens.
// ns/op should stay roughly flat across model counts.
func BenchmarkObserveToken(b *testing.B) {
	for _, n := range []int{1, 40, 400} {
		b.Run(fmt.Sprintf("models=%d", n), func(b *testing.B) {
			m := New(Config{})
			for i := 1; i <= n; i++ {
				m.NameModel(model.ID(i), fmt.Sprintf("m%03d", i))
				m.ObserveToken(TokenObs{Model: model.ID(i), Request: "r", Deadline: time.Second})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at := time.Duration(i) * time.Millisecond
				m.ObserveToken(TokenObs{Model: model.ID(1 + i%n), Request: "r", Index: 1 + i%64,
					Deadline: at + time.Second, At: at, Prev: at - time.Millisecond})
			}
		})
	}
}
