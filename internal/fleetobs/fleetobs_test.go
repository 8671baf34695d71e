package fleetobs

import (
	"math"
	"strings"
	"testing"
	"time"

	"aegaeon/internal/gpu"
	"aegaeon/internal/model"
	"aegaeon/internal/sim"
)

func newLedgerDevice(t *testing.T) (*sim.Engine, *Ledger, *gpu.Device) {
	t.Helper()
	eng := sim.NewEngine(1)
	l := New(eng)
	for id, name := range []string{1: "m1", 2: "m2", 3: "m"} {
		if name != "" {
			l.NameModel(model.ID(id), name)
		}
	}
	dev := gpu.NewDevice(eng, "dev0")
	l.ObserveDevice(dev)
	return eng, l, dev
}

func requireConserves(t *testing.T, l *Ledger, now sim.Time) {
	t.Helper()
	if errs := l.Snapshot(now).ConservationErrors; len(errs) > 0 {
		t.Fatalf("conservation violated: %v", errs)
	}
}

// The core invariant: ops, host stages, and idle gaps partition wall time
// exactly, and the raw busy mirror matches the device's own accounting
// byte-for-byte.
func TestConservationExact(t *testing.T) {
	eng, l, dev := newLedgerDevice(t)
	s := dev.NewStream("s")

	s.SubmitOp(gpu.Compute, 30*time.Millisecond, gpu.OpInfo{Kind: gpu.OpPrefill, Model: 1})
	s.SubmitOp(gpu.Compute, 50*time.Millisecond, gpu.OpInfo{Kind: gpu.OpDecode, Model: 1})
	eng.At(100*time.Millisecond, func() {
		l.Enter("dev0", Reinit, 2)
		eng.After(40*time.Millisecond, func() { l.Exit("dev0", Reinit) })
	})
	eng.At(200*time.Millisecond, func() {
		s.SubmitOp(gpu.H2D, 25*time.Millisecond, gpu.OpInfo{Kind: gpu.OpLoad, Model: 2})
	})
	eng.RunUntil(sim.Time(300 * time.Millisecond))

	now := eng.Now()
	requireConserves(t, l, now)

	wantStates := map[State]time.Duration{
		Prefill:    30 * time.Millisecond,
		Decode:     50 * time.Millisecond,
		Reinit:     40 * time.Millisecond,
		WeightLoad: 25 * time.Millisecond,
		Idle:       155 * time.Millisecond,
	}
	for st, want := range wantStates {
		if got := l.StateSeconds("dev0", st, now); got != want.Seconds() {
			t.Errorf("state %s: got %.3fs, want %v", st, got, want)
		}
	}
	if got, want := l.RawBusy("dev0", gpu.Compute, now), dev.BusyTime(gpu.Compute); got != want {
		t.Errorf("raw compute mirror %v, device reports %v", got, want)
	}
	if got, want := l.RawBusy("dev0", gpu.H2D, now), dev.BusyTime(gpu.H2D); got != want {
		t.Errorf("raw h2d mirror %v, device reports %v", got, want)
	}
}

// Mid-op conservation: the invariant must hold at an instant when an op and
// a host stage are still open (the open segment is charged, not lost).
func TestConservationMidOp(t *testing.T) {
	eng, l, dev := newLedgerDevice(t)
	s := dev.NewStream("s")
	s.SubmitOp(gpu.Compute, time.Second, gpu.OpInfo{Kind: gpu.OpDecode, Model: 1})
	l.Enter("dev0", Fetch, 2)
	eng.RunUntil(sim.Time(300 * time.Millisecond))
	requireConserves(t, l, eng.Now())
	// Fetch outranks Decode: the whole 300ms must be fetch.
	if got := l.StateSeconds("dev0", Fetch, eng.Now()); got != 0.3 {
		t.Errorf("fetch seconds %v, want 0.3", got)
	}
	if got := l.StateSeconds("dev0", Decode, eng.Now()); got != 0 {
		t.Errorf("decode seconds %v, want 0 (masked by fetch)", got)
	}
	// The raw mirror still sees the running compute op.
	if got := l.RawBusy("dev0", gpu.Compute, eng.Now()); got != 300*time.Millisecond {
		t.Errorf("raw compute %v, want 300ms", got)
	}
}

// An off-loop reader (the gateway) reads the virtual clock, then renders
// the ledger after the loop has charged more edges. The ledger renders at
// no earlier than its last edge, so a stale instant never yields negative
// state time or a raw busy integral outside [0, wall].
func TestSnapshotNeverRewinds(t *testing.T) {
	eng, l, dev := newLedgerDevice(t)
	s := dev.NewStream("s")
	eng.At(sim.Time(100*time.Millisecond), func() {
		s.SubmitOp(gpu.H2D, 50*time.Millisecond, gpu.OpInfo{Kind: gpu.OpKVIn, Model: 1, Request: "r"})
	})
	eng.RunUntil(sim.Time(110 * time.Millisecond))

	stale := sim.Time(90 * time.Millisecond)
	requireConserves(t, l, stale)
	snap := l.Snapshot(stale)
	if len(snap.ConservationErrors) > 0 {
		t.Fatalf("snapshot at a stale instant: %v", snap.ConservationErrors)
	}
	if snap.NowSeconds != 0.1 {
		t.Errorf("rendered at %vs, want the last edge at 0.1s", snap.NowSeconds)
	}
	for st, sec := range snap.Devices[0].StatesS {
		if sec < 0 {
			t.Errorf("state %s at %vs", st, sec)
		}
	}
	if got := l.RawBusy("dev0", gpu.H2D, stale); got != 0 {
		t.Errorf("raw h2d busy %v at a stale instant, want 0 (the op started at the last edge)", got)
	}
}

// Compute masks DMA: a prefetch hidden under decode is charged to decode
// (hidden, as §5.2 intends); only its exposed tail is weight-load.
func TestPriorityMasking(t *testing.T) {
	eng, l, dev := newLedgerDevice(t)
	comp := dev.NewStream("default")
	pf := dev.NewStream("prefetch")

	comp.SubmitOp(gpu.Compute, 60*time.Millisecond, gpu.OpInfo{Kind: gpu.OpDecode, Model: 1})
	pf.SubmitOp(gpu.H2D, 100*time.Millisecond, gpu.OpInfo{Kind: gpu.OpPrefetch, Model: 2})
	eng.Run()

	now := eng.Now()
	requireConserves(t, l, now)
	if got := l.StateSeconds("dev0", Decode, now); got != 0.06 {
		t.Errorf("decode %vs, want 0.06", got)
	}
	if got := l.StateSeconds("dev0", WeightLoad, now); got != 0.04 {
		t.Errorf("exposed weight-load %vs, want 0.04 (60ms hidden under decode)", got)
	}
}

// After Fault, every subsequent second lands in faulted no matter what else
// the device appears to do, with no double counting.
func TestFaultedTerminal(t *testing.T) {
	eng, l, dev := newLedgerDevice(t)
	s := dev.NewStream("s")
	s.SubmitOp(gpu.Compute, 100*time.Millisecond, gpu.OpInfo{Kind: gpu.OpDecode, Model: 1})
	eng.At(40*time.Millisecond, func() { l.Fault("dev0") })
	eng.RunUntil(sim.Time(250 * time.Millisecond))

	now := eng.Now()
	requireConserves(t, l, now)
	if got := l.StateSeconds("dev0", Decode, now); got != 0.04 {
		t.Errorf("decode %vs, want 0.04 (pre-crash only)", got)
	}
	if got := l.StateSeconds("dev0", Faulted, now); got != 0.21 {
		t.Errorf("faulted %vs, want 0.21", got)
	}
	l.Fault("dev0") // idempotent
	requireConserves(t, l, now)
	snap := l.Snapshot(now)
	if !snap.Devices[0].Faulted || snap.Devices[0].Current != "faulted" {
		t.Errorf("snapshot not faulted: %+v", snap.Devices[0])
	}
}

// All exported methods must be no-ops on a nil ledger.
func TestNilLedger(t *testing.T) {
	var l *Ledger
	l.Register("x")
	l.ObserveDevice(nil)
	l.Enter("x", Reinit, model.NoID)
	l.Exit("x", Reinit)
	l.Fault("x")
	l.AddTokens(l.Ref("x"), 3, 5)
	l.NoteKV(l.Ref("x"), 1, 2)
	l.SetRate("x", 3)
	if l.Devices() != nil || l.Snapshot(0) != nil {
		t.Error("nil ledger returned non-nil data")
	}
}

func TestSnapshotDerivedMetrics(t *testing.T) {
	eng, l, dev := newLedgerDevice(t)
	dev2 := gpu.NewDevice(eng, "dev1")
	l.ObserveDevice(dev2)
	s := dev.NewStream("s")
	s2 := dev2.NewStream("s")

	s.SubmitOp(gpu.Compute, 100*time.Millisecond, gpu.OpInfo{Kind: gpu.OpDecode, Model: 1})
	s2.SubmitOp(gpu.Compute, 300*time.Millisecond, gpu.OpInfo{Kind: gpu.OpDecode, Model: 2})
	s2.SubmitOp(gpu.H2D, 100*time.Millisecond, gpu.OpInfo{Kind: gpu.OpLoad, Model: 2})
	eng.RunUntil(sim.Time(time.Second))
	l.AddTokens(l.Ref("dev0"), 1, 50)
	l.AddTokens(l.Ref("dev1"), 2, 300)
	l.NoteKV(l.Ref("dev0"), 1<<20, 1<<30)
	l.NoteKV(l.Ref("dev0"), 1<<10, 1<<30) // peak must stick at 1MiB
	l.SetRate("dev1", 2.5)

	snap := l.Snapshot(eng.Now())
	if len(snap.ConservationErrors) > 0 {
		t.Fatalf("conservation: %v", snap.ConservationErrors)
	}
	if err := snap.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	if snap.Fleet.Devices != 2 || snap.Fleet.GPUSeconds != 2.0 {
		t.Errorf("fleet totals: %+v", snap.Fleet)
	}
	if snap.Devices[0].KVPeakBytes != 1<<20 || snap.Devices[0].KVUsedBytes != 1<<10 {
		t.Errorf("kv watermark: %+v", snap.Devices[0])
	}
	// dev1: cost integrates piecewise — the whole 1s of wall time accrued
	// at the default $1/hr; the $2.5 rate only applies from its edge (the
	// snapshot instant), not retroactively.
	if got, want := snap.Devices[1].CostDollars, 1.0/3600; got != want {
		t.Errorf("dev1 cost %v, want %v", got, want)
	}
	if got := snap.Devices[1].HourlyRate; got != 2.5 {
		t.Errorf("dev1 rate %v, want 2.5", got)
	}
	if len(snap.Models) != 2 {
		t.Fatalf("models: %+v", snap.Models)
	}
	m1, m2 := snap.Models[0], snap.Models[1]
	if m1.Model != "m1" || m2.Model != "m2" {
		t.Fatalf("model order: %+v", snap.Models)
	}
	if m1.TokensPerGPUSecond != 500 { // 50 tokens / 0.1s compute
		t.Errorf("m1 tokens/gpu-s %v, want 500", m1.TokensPerGPUSecond)
	}
	if m2.OccupancyShare != 0.75 { // 300ms of 400ms compute
		t.Errorf("m2 occupancy share %v, want 0.75", m2.OccupancyShare)
	}
	// dev1 switch overhead: 100ms weight-load over 1s wall.
	if got := snap.Devices[1].SwitchRatio; got != 0.1 {
		t.Errorf("dev1 switch ratio %v, want 0.1", got)
	}

	csv := snap.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 4 { // header + 2 devices + fleet
		t.Fatalf("csv lines: %d\n%s", len(lines), csv)
	}
	if !strings.HasPrefix(lines[0], "device,wall_s,idle_s") || !strings.HasPrefix(lines[3], "fleet,") {
		t.Errorf("csv shape:\n%s", csv)
	}
}

// Back-to-back same-state ops coalesce into one heatmap segment.
func TestSegmentCoalescing(t *testing.T) {
	eng, l, dev := newLedgerDevice(t)
	s := dev.NewStream("s")
	for i := 0; i < 5; i++ {
		s.SubmitOp(gpu.Compute, 10*time.Millisecond, gpu.OpInfo{Kind: gpu.OpDecode, Model: 1})
	}
	eng.Run()
	snap := l.Snapshot(eng.Now())
	segs := snap.Devices[0].Segments
	if len(segs) != 1 {
		t.Fatalf("segments: %+v", segs)
	}
	if segs[0].State != "decode" || segs[0].StartS != 0 || segs[0].EndS != 0.05 {
		t.Errorf("coalesced segment: %+v", segs[0])
	}
}

// The segment ring stays bounded and keeps the most recent history.
func TestSegmentRingBounded(t *testing.T) {
	eng, l, dev := newLedgerDevice(t)
	s := dev.NewStream("s")
	var submit func(i int)
	submit = func(i int) {
		if i >= 3*maxSegments {
			return
		}
		kind := gpu.OpDecode
		if i%2 == 0 {
			kind = gpu.OpPrefill
		}
		s.SubmitOp(gpu.Compute, time.Microsecond, gpu.OpInfo{Kind: kind, Model: 3}, func() { submit(i + 1) })
	}
	submit(0)
	eng.Run()
	requireConserves(t, l, eng.Now())
	snap := l.Snapshot(eng.Now())
	d := snap.Devices[0]
	if len(d.Segments) > maxSegments+1 {
		t.Errorf("ring unbounded: %d segments", len(d.Segments))
	}
	if d.SegmentsLost == 0 {
		t.Error("expected dropped segments to be counted")
	}
	last := d.Segments[len(d.Segments)-1]
	if last.EndS != d.WallS {
		t.Errorf("most recent history missing: last end %v, wall %v", last.EndS, d.WallS)
	}
	// Op i is the segment [i, i+1) µs, prefill when i is even: the ring
	// holds exactly the newest ones, unchanged by its halvings.
	if got := uint64(len(d.Segments)) + d.SegmentsLost; got != 3*maxSegments {
		t.Fatalf("%d segments retained + %d lost, want %d", len(d.Segments), d.SegmentsLost, 3*maxSegments)
	}
	for k, sg := range d.Segments {
		i := int(d.SegmentsLost) + k
		want := SegmentSnapshot{State: "decode", Model: "m", StartS: float64(i) * 1e-6, EndS: float64(i+1) * 1e-6}
		if i%2 == 0 {
			want.State = "prefill"
		}
		if sg.State != want.State || sg.Model != want.Model ||
			math.Abs(sg.StartS-want.StartS) > 1e-12 || math.Abs(sg.EndS-want.EndS) > 1e-12 {
			t.Fatalf("segment %d (op %d) = %+v, want %+v", k, i, sg, want)
		}
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		k    gpu.EngineKind
		kind gpu.OpKind
		want State
	}{
		{gpu.Compute, gpu.OpPrefill, Prefill},
		{gpu.Compute, gpu.OpDecode, Decode},
		{gpu.Compute, gpu.OpCompact, Compact},
		{gpu.Compute, gpu.OpCompactResidents, Compact},
		{gpu.Compute, gpu.OpUnlabelled, Decode},
		{gpu.H2D, gpu.OpLoad, WeightLoad},
		{gpu.H2D, gpu.OpPrefetch, WeightLoad},
		{gpu.H2D, gpu.OpKVIn, KVTransfer},
		{gpu.H2D, gpu.OpPrefixReuse, KVTransfer},
		{gpu.H2D, gpu.OpUnlabelled, KVTransfer},
		{gpu.D2H, gpu.OpKVOut, KVTransfer},
	}
	for _, c := range cases {
		info := gpu.OpInfo{Kind: c.kind, Model: 1, Request: "r1"}
		if got := Classify(c.k, info); got != c.want {
			t.Errorf("Classify(%v, %q) = %v, want %v", c.k, info.Label("m1"), got, c.want)
		}
	}
}

// Mid-run rate changes must integrate cost piecewise at the change edges:
// one hour at $1 then one hour at $5 is $6, not $10 (the latest rate applied
// retroactively — the bug this test pins down).
func TestSetRatePiecewiseCost(t *testing.T) {
	eng := sim.NewEngine(1)
	l := New(eng)
	l.Register("dev0")

	eng.At(time.Hour, func() { l.SetRate("dev0", 5) })
	eng.At(2*time.Hour, func() {}) // run the clock out to t=2h
	eng.Run()

	snap := l.Snapshot(eng.Now())
	if len(snap.Devices) != 1 {
		t.Fatalf("%d devices", len(snap.Devices))
	}
	d := snap.Devices[0]
	// Hour 1 at DefaultHourlyRate ($1) + hour 2 at $5.
	want := 1.0*DefaultHourlyRate + 1.0*5
	if diff := d.CostDollars - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("cost = $%.6f, want $%.6f (retroactive rate?)", d.CostDollars, want)
	}
	if d.HourlyRate != 5 {
		t.Fatalf("hourly rate = %g, want 5", d.HourlyRate)
	}
	if snap.Fleet.CostDollars != d.CostDollars {
		t.Fatalf("fleet cost %g != device cost %g", snap.Fleet.CostDollars, d.CostDollars)
	}
}

// Several edges, including repeated rates and a same-instant double set.
func TestSetRateManyEdges(t *testing.T) {
	eng := sim.NewEngine(1)
	l := New(eng)
	l.Register("dev0")

	eng.At(30*time.Minute, func() { l.SetRate("dev0", 2) })
	eng.At(45*time.Minute, func() {
		l.SetRate("dev0", 8)
		l.SetRate("dev0", 4) // immediately corrected: zero-width segment at 8
	})
	eng.At(60*time.Minute, func() {})
	eng.Run()

	// 30m at $1 + 15m at $2 + 15m at $4 = 0.5 + 0.5 + 1.0.
	want := 2.0
	got := l.Snapshot(eng.Now()).Devices[0].CostDollars
	if diff := got - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("cost = $%.6f, want $%.6f", got, want)
	}
}

// TestAddTokensAllocs: crediting a decode step's tokens to a model the
// device has served before allocates nothing.
func TestAddTokensAllocs(t *testing.T) {
	eng, l, _ := newLedgerDevice(t)
	dev0 := l.Ref("dev0")
	l.AddTokens(dev0, 1, 8)
	if n := testing.AllocsPerRun(100, func() { l.AddTokens(dev0, 1, 8) }); n != 0 {
		t.Fatalf("AddTokens allocates %.1f times per step, want 0", n)
	}
	if got := l.Snapshot(eng.Now()).Devices[0].Tokens; got != 8*102 {
		t.Fatalf("tokens = %d, want %d", got, 8*102)
	}
}

// BenchmarkAddTokens is the ledger's cost per decode step's goodput credit.
func BenchmarkAddTokens(b *testing.B) {
	l := New(sim.NewEngine(1))
	l.Register("dev0")
	dev0 := l.Ref("dev0")
	l.AddTokens(dev0, 1, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.AddTokens(dev0, 1, 8)
	}
}
