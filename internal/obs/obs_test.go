package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"aegaeon/internal/gpu"
	"aegaeon/internal/sim"
)

func ms(n int) sim.Time { return time.Duration(n) * time.Millisecond }

// spanByName returns the first span with the given name.
func spanByName(t *testing.T, spans []Span, name string) Span {
	t.Helper()
	for _, s := range spans {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("no span %q in %+v", name, spans)
	return Span{}
}

func TestRequestSpanLifecycle(t *testing.T) {
	c := New(Options{})
	c.NameModel(1, "m1")
	h := c.RequestArrived("r1", "m1", ms(0))
	c.PrefillStart("p0", "r1", h, ms(10))
	c.PrefillDone("p0", "r1", h, ms(30))
	c.Token(h, ms(30))
	c.TurnStart("d0", 1, ms(50), 2*time.Second, []Handle{h})
	c.TokenBatch("d0", 1, ms(60), []Handle{h})
	c.TokenBatch("d0", 1, ms(70), []Handle{h})
	c.TurnEnd("d0", 1, ms(80))
	c.RequestDone("r1", ms(80))

	rt, ok := c.Request("r1")
	if !ok {
		t.Fatal("timeline missing")
	}
	if !rt.Done || rt.Finished != ms(80) {
		t.Fatalf("done=%v finished=%v", rt.Done, rt.Finished)
	}
	qw := spanByName(t, rt.Spans, "queue-wait")
	if qw.Start != ms(0) || qw.End != ms(10) {
		t.Fatalf("queue-wait = %+v", qw)
	}
	pf := spanByName(t, rt.Spans, "prefill")
	if pf.Start != ms(10) || pf.End != ms(30) {
		t.Fatalf("prefill = %+v", pf)
	}
	dw := spanByName(t, rt.Spans, "decode-wait")
	if dw.Start != ms(30) || dw.End != ms(50) {
		t.Fatalf("decode-wait = %+v", dw)
	}
	dt := spanByName(t, rt.Spans, "decode-turn")
	if dt.Start != ms(50) || dt.End != ms(80) {
		t.Fatalf("decode-turn = %+v", dt)
	}
	if rt.TokensTotal != 3 || len(rt.Tokens) != 3 {
		t.Fatalf("tokens = %d/%d", len(rt.Tokens), rt.TokensTotal)
	}
	// The flat ring saw the matching events (one event model, not two),
	// with the model id resolved to its name.
	ring := c.Ring()
	for _, k := range []Kind{KindArrival, KindPrefillStart,
		KindPrefillDone, KindTurnStart, KindTurnEnd,
		KindTokenBatch, KindRequestDone} {
		if ring.Count(k) == 0 {
			t.Errorf("ring missing kind %v", k)
		}
	}
	for _, e := range ring.Events() {
		if (e.Kind == KindTurnStart || e.Kind == KindTokenBatch) && e.Subject != "m1" {
			t.Errorf("%v event names model %q, want m1", e.Kind, e.Subject)
		}
	}
}

// TestTokenBatchDetail: the token-batch ring event reads back its "%d
// tokens" text, which Detail formats when read, and a decode step of
// untracked requests emits without allocating.
func TestTokenBatchDetail(t *testing.T) {
	c := New(Options{})
	sizes := []int{0, 1, 7, 255, 256, 300}
	for _, n := range sizes {
		c.TokenBatch("d0", 1, 0, make([]Handle, n))
	}
	events := c.Ring().Events()
	if len(events) != len(sizes) {
		t.Fatalf("ring holds %d events, want %d", len(events), len(sizes))
	}
	for i, n := range sizes {
		if want := fmt.Sprintf("%d tokens", n); events[i].Detail() != want {
			t.Errorf("detail for %d tokens = %q, want %q", n, events[i].Detail(), want)
		}
	}
	hs := make([]Handle, 3)
	if allocs := testing.AllocsPerRun(100, func() { c.TokenBatch("d0", 1, 0, hs) }); allocs != 0 {
		t.Errorf("TokenBatch allocates %v times per call, want 0", allocs)
	}
}

// TestTokenBatchAllocs: a decode step of tracked requests whose token stamps
// are at the cap records without allocating, so the per-step feed costs one
// lock and no garbage.
func TestTokenBatchAllocs(t *testing.T) {
	c := New(Options{})
	c.NameModel(1, "m")
	var hs []Handle
	for _, id := range []string{"r1", "r2", "r3"} {
		hs = append(hs, c.RequestArrived(id, "m", 0))
	}
	for i := 0; i < maxTokensPerRequest; i++ {
		c.TokenBatch("d0", 1, ms(i), hs)
	}
	at := ms(maxTokensPerRequest + 1)
	if allocs := testing.AllocsPerRun(100, func() { c.TokenBatch("d0", 1, at, hs) }); allocs != 0 {
		t.Fatalf("TokenBatch allocates %v times per step, want 0", allocs)
	}
	// AllocsPerRun makes one warm-up call before its 100 runs.
	if tl, _ := c.Request("r2"); len(tl.Tokens) != maxTokensPerRequest || tl.TokensTotal != maxTokensPerRequest+101 {
		t.Fatalf("r2 keeps %d stamps of %d, want %d of %d",
			len(tl.Tokens), tl.TokensTotal, maxTokensPerRequest, maxTokensPerRequest+101)
	}
}

// BenchmarkTokenBatch is the collector's cost per decode step of 8 tracked
// requests past their token-stamp cap (the steady state of a long decode).
func BenchmarkTokenBatch(b *testing.B) {
	c := New(Options{})
	c.NameModel(1, "m")
	hs := make([]Handle, 8)
	for i := range hs {
		hs[i] = c.RequestArrived(fmt.Sprintf("r%d", i), "m", 0)
	}
	for i := 0; i < maxTokensPerRequest; i++ {
		c.TokenBatch("d0", 1, 0, hs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.TokenBatch("d0", 1, time.Duration(i), hs)
	}
}

func TestTurnEndReopensDecodeWait(t *testing.T) {
	c := New(Options{})
	h := c.RequestArrived("r1", "m1", ms(0))
	c.PrefillStart("p0", "r1", h, ms(0))
	c.PrefillDone("p0", "r1", h, ms(10))
	c.TurnStart("d0", 1, ms(20), time.Second, []Handle{h})
	c.TurnEnd("d0", 1, ms(40))
	c.TurnStart("d0", 1, ms(60), time.Second, []Handle{h})
	c.TurnEnd("d0", 1, ms(90))
	c.RequestDone("r1", ms(90))

	rt, _ := c.Request("r1")
	var turns int
	var waits []Span
	for _, s := range rt.Spans {
		switch s.Name {
		case "decode-turn":
			turns++
		case "decode-wait":
			waits = append(waits, s)
		}
	}
	// Two real waits between turns plus the zero-length one TurnEnd reopened
	// at the instant RequestDone closed everything.
	if turns != 2 || len(waits) != 3 {
		t.Fatalf("turns=%d waits=%d, want 2/3", turns, len(waits))
	}
	if last := waits[len(waits)-1]; last.Start != last.End {
		t.Fatalf("trailing decode-wait not zero-length: %+v", last)
	}
}

func TestSwitchAttribution(t *testing.T) {
	c := New(Options{})
	c.RequestArrived("r1", "m2", ms(0))
	c.RequestArrived("r2", "m2", ms(0))

	c.BeginSwitch("d0", "m1", "m2", ms(100), true)
	c.SwitchStage("d0", "weight-load", ms(100), ms(400))
	c.SwitchStage("d0", "compact", ms(400), ms(450))
	c.SwitchVictims("d0", []string{"r1", "r2"})
	c.EndSwitch("d0", ms(500))

	sws, total := c.Switches()
	if total != 1 || len(sws) != 1 {
		t.Fatalf("switches = %d/%d", len(sws), total)
	}
	sw := sws[0]
	if sw.From != "m1" || sw.To != "m2" || !sw.ReinitAvoided {
		t.Fatalf("switch = %+v", sw)
	}
	if sw.Stall != 400*time.Millisecond {
		t.Fatalf("stall = %v, want 400ms", sw.Stall)
	}
	if len(sw.Stages) != 2 || sw.Stages[0].Name != "weight-load" {
		t.Fatalf("stages = %+v", sw.Stages)
	}
	if len(sw.Victims) != 2 {
		t.Fatalf("victims = %v", sw.Victims)
	}
	for _, id := range []string{"r1", "r2"} {
		rt, _ := c.Request(id)
		if rt.SwitchStall != 400*time.Millisecond {
			t.Fatalf("%s charged %v, want 400ms", id, rt.SwitchStall)
		}
		ss := spanByName(t, rt.Spans, "switch-stall")
		if ss.Start != ms(100) || ss.End != ms(500) {
			t.Fatalf("switch-stall span = %+v", ss)
		}
	}
}

func TestSwitchStageAfterEndAttachesToLastSwitch(t *testing.T) {
	// §5.3: the exposed KV sync wait surfaces after the switch itself ended;
	// the stage must land on the most recent switch of the instance.
	c := New(Options{})
	c.BeginSwitch("d0", "m1", "m2", ms(0), false)
	c.EndSwitch("d0", ms(100))
	c.SwitchStage("d0", "kv-sync", ms(100), ms(130))

	sws, _ := c.Switches()
	if len(sws) != 1 || len(sws[0].Stages) != 1 || sws[0].Stages[0].Name != "kv-sync" {
		t.Fatalf("post-end stage not attached: %+v", sws)
	}
}

func TestVictimsAfterEndAreIgnored(t *testing.T) {
	c := New(Options{})
	c.RequestArrived("r1", "m2", ms(0))
	c.BeginSwitch("d0", "m1", "m2", ms(0), false)
	c.EndSwitch("d0", ms(100))
	c.SwitchVictims("d0", []string{"r1"})
	sws, _ := c.Switches()
	if len(sws[0].Victims) != 0 {
		t.Fatalf("late victims attached: %v", sws[0].Victims)
	}
	rt, _ := c.Request("r1")
	if rt.SwitchStall != 0 {
		t.Fatalf("late victim charged %v", rt.SwitchStall)
	}
}

func TestSwitchRingWraps(t *testing.T) {
	c := New(Options{})
	const n = maxSwitches + 6
	for i := 0; i < n; i++ {
		c.BeginSwitch("d0", "a", "b", ms(i*10), false)
		c.EndSwitch("d0", ms(i*10+5))
	}
	sws, total := c.Switches()
	if total != n || len(sws) != maxSwitches {
		t.Fatalf("switches = %d/%d, want %d/%d", len(sws), total, maxSwitches, n)
	}
	for i, sw := range sws {
		if want := ms((6 + i) * 10); sw.Start != want {
			t.Fatalf("switch %d starts %v, want %v (oldest-first order)", i, sw.Start, want)
		}
	}
}

// arriveLive fills n timeline slots with requests that never complete.
func arriveLive(c *Collector, n int) {
	for i := 0; i < n; i++ {
		c.RequestArrived(fmt.Sprintf("live%d", i), "m", 0)
	}
}

func TestRequestEvictionPrefersCompleted(t *testing.T) {
	c := New(Options{})
	c.RequestArrived("r1", "m", ms(0))
	c.RequestArrived("r2", "m", ms(1))
	c.RequestDone("r2", ms(2))
	arriveLive(c, maxRequests-3)
	c.RequestArrived("r3", "m", ms(3))
	c.RequestArrived("r4", "m", ms(4)) // over cap: evicts r2 (completed)

	if _, ok := c.Request("r2"); ok {
		t.Fatal("completed r2 not evicted")
	}
	for _, id := range []string{"r1", "r3", "r4"} {
		if _, ok := c.Request(id); !ok {
			t.Fatalf("live %s evicted", id)
		}
	}

	// Nothing completed: the oldest goes.
	c.RequestArrived("r5", "m", ms(5))
	if _, ok := c.Request("r1"); ok {
		t.Fatal("oldest r1 not evicted when none completed")
	}
}

// TestStaleHandleIsNoop: once a timeline is evicted its handle resolves to
// nothing, even after a new request's timeline reuses the slot.
func TestStaleHandleIsNoop(t *testing.T) {
	c := New(Options{})
	old := c.RequestArrived("r1", "m", ms(0))
	c.RequestDone("r1", ms(1))
	arriveLive(c, maxRequests-1)
	c.RequestArrived("r2", "m", ms(2)) // evicts r1, freeing its slot
	c.RequestDone("r2", ms(3))
	fresh := c.RequestArrived("r3", "m", ms(4)) // evicts r2, takes r1's slot
	if old.slot != fresh.slot || old.gen == fresh.gen {
		t.Fatalf("r3 got %+v, want r1's slot %+v at a new generation", fresh, old)
	}
	c.Token(old, ms(5))
	c.TokenBatch("d0", 1, ms(6), []Handle{old})
	c.PrefillStart("p0", "r1", old, ms(7))
	c.TurnStart("d0", 1, ms(8), time.Second, []Handle{old})
	c.TurnEnd("d0", 1, ms(9))
	rt, ok := c.Request("r3")
	if !ok {
		t.Fatal("r3 timeline missing")
	}
	if rt.TokensTotal != 0 || len(rt.Spans) != 1 || rt.Spans[0].Name != "queue-wait (open)" {
		t.Fatalf("stale handle reached r3: %+v", rt)
	}
	if _, ok := c.Request("r1"); ok {
		t.Fatal("r1 not evicted")
	}
}

// TestEvictedTimelineIsRecycled: a slot's next request reuses the evicted
// timeline and its buffers, starts with no spans and no tokens, and still
// exports a null token list; a snapshot taken before the eviction is not
// changed by the reuse.
func TestEvictedTimelineIsRecycled(t *testing.T) {
	c := New(Options{})
	h1 := c.RequestArrived("r1", "m", ms(0))
	c.PrefillStart("p0", "r1", h1, ms(1))
	c.Token(h1, ms(2))
	c.PrefillDone("p0", "r1", h1, ms(2))
	c.TurnStart("d0", 1, ms(3), time.Second, []Handle{h1})
	for i := 4; i < 40; i++ {
		c.TokenBatch("d0", 1, ms(i), []Handle{h1})
	}
	c.TurnEnd("d0", 1, ms(40))
	c.RequestDone("r1", ms(41))
	snap, ok := c.Request("r1")
	if !ok {
		t.Fatal("r1 timeline missing")
	}
	want, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	old := c.slots[h1.slot].t

	arriveLive(c, maxRequests-1)
	c.RequestArrived("r2", "m", ms(50)) // evicts r1
	c.RequestDone("r2", ms(51))
	h3 := c.RequestArrived("r3", "m", ms(60)) // evicts r2, takes r1's slot
	if h3.slot != h1.slot || c.slots[h3.slot].t != old {
		t.Fatal("r3 did not reuse r1's slot and timeline")
	}
	rt, ok := c.Request("r3")
	if !ok {
		t.Fatal("r3 timeline missing")
	}
	if rt.TokensTotal != 0 || rt.Tokens != nil || rt.SwitchStall != 0 || rt.Done ||
		len(rt.Spans) != 1 || rt.Spans[0].Name != "queue-wait (open)" {
		t.Fatalf("reused timeline kept r1's state: %+v", rt)
	}
	b, err := json.Marshal(rt)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"tokens_ns":null`) {
		t.Fatalf("tokenless reused timeline exports %s, want \"tokens_ns\":null", b)
	}

	// Writing r3 over r1's buffers leaves the r1 snapshot as it was.
	c.PrefillStart("p0", "r3", h3, ms(61))
	for i := 62; i < 70; i++ {
		c.Token(h3, ms(i))
	}
	c.RequestDone("r3", ms(70))
	if got, err := json.Marshal(snap); err != nil || string(got) != string(want) {
		t.Fatalf("r1 snapshot changed by its slot's reuse:\n got %s\nwant %s", got, want)
	}
}

func TestDuplicateArrivalKeepsOriginal(t *testing.T) {
	c := New(Options{})
	h := c.RequestArrived("r1", "m", ms(0))
	c.Token(h, ms(5))
	if again := c.RequestArrived("r1", "m", ms(100)); again != h { // failover re-dispatch
		t.Fatalf("re-dispatch got handle %+v, want the original %+v", again, h)
	}
	rt, _ := c.Request("r1")
	if rt.Arrival != ms(0) || rt.TokensTotal != 1 {
		t.Fatalf("re-dispatch clobbered the timeline: %+v", rt)
	}
}

func TestTokenStampsCapped(t *testing.T) {
	c := New(Options{})
	h := c.RequestArrived("r1", "m", ms(0))
	const n = maxTokensPerRequest + 6
	for i := 0; i < n; i++ {
		c.Token(h, ms(i))
	}
	rt, _ := c.Request("r1")
	if len(rt.Tokens) != maxTokensPerRequest || rt.TokensTotal != n {
		t.Fatalf("tokens = %d retained / %d total, want %d/%d", len(rt.Tokens), rt.TokensTotal, maxTokensPerRequest, n)
	}
}

func TestObserveDeviceRecordsBoundedOps(t *testing.T) {
	se := sim.NewEngine(1)
	d := gpu.NewDevice(se, "gpu0")
	c := New(Options{})
	c.ObserveDevice(d)
	s := d.NewStream("s")
	const n = maxOpsPerEngine + 6
	for i := 0; i < n; i++ {
		s.SubmitOp(gpu.Compute, 10*time.Millisecond, gpu.OpInfo{Kind: gpu.OpDecode, Model: 1})
	}
	s.SubmitOp(gpu.H2D, 5*time.Millisecond, gpu.OpInfo{Kind: gpu.OpKVIn})
	se.Run()

	var compute, h2d EngineTimeline
	for _, tl := range c.DeviceTimelines() {
		switch tl.Engine {
		case gpu.Compute:
			compute = tl
		case gpu.H2D:
			h2d = tl
		}
	}
	if len(compute.Ops) != maxOpsPerEngine || compute.Total != n {
		t.Fatalf("compute ring = %d retained / %d total, want %d/%d", len(compute.Ops), compute.Total, maxOpsPerEngine, n)
	}
	if h2d.Total != 1 {
		t.Fatalf("h2d total = %d", h2d.Total)
	}
	// Retained ops are in emission order and non-overlapping (FIFO engine).
	for i := 1; i < len(compute.Ops); i++ {
		if compute.Ops[i].Start < compute.Ops[i-1].End {
			t.Fatalf("compute ops overlap: %+v then %+v", compute.Ops[i-1], compute.Ops[i])
		}
	}
	// The export of a wrapped ring validates.
	var buf bytes.Buffer
	if err := c.PerfettoTrace().Write(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if err := ValidatePerfetto(&buf); err != nil {
		t.Fatalf("export of a wrapped op ring does not validate: %v", err)
	}
}

func TestUtilizations(t *testing.T) {
	se := sim.NewEngine(1)
	d := gpu.NewDevice(se, "gpu0")
	c := New(Options{})
	c.ObserveDevice(d)
	s := d.NewStream("s")
	s.SubmitOp(gpu.Compute, 40*time.Millisecond, gpu.OpInfo{Kind: gpu.OpDecode})
	se.Run() // now = 40ms, compute busy the whole time

	utils := c.Utilizations(se.Now(), 80*time.Millisecond)
	if len(utils) != 3 {
		t.Fatalf("engines = %d", len(utils))
	}
	for _, u := range utils {
		if u.Utilization < 0 || u.Utilization > 1 {
			t.Fatalf("%s/%s utilization %v out of [0,1]", u.Device, u.Engine, u.Utilization)
		}
		switch u.Engine {
		case "compute":
			// Window clips to [0, 40ms]; busy all of it.
			if u.Utilization < 0.99 {
				t.Fatalf("compute utilization = %v, want ~1", u.Utilization)
			}
		default:
			if u.Utilization != 0 {
				t.Fatalf("%s utilization = %v, want 0", u.Engine, u.Utilization)
			}
		}
	}
	if c.Utilizations(se.Now(), 0) != nil {
		t.Fatal("zero window should return nil")
	}
}

func TestNilCollectorIsNoopAndAllocationFree(t *testing.T) {
	var c *Collector
	ids := []string{"r1"}
	hs := []Handle{{}}
	allocs := testing.AllocsPerRun(100, func() {
		h := c.RequestArrived("r1", "m", 0)
		c.PrefillStart("p0", "r1", h, 0)
		c.PrefillDone("p0", "r1", h, 0)
		c.TurnStart("d0", 1, 0, time.Second, hs)
		c.TokenBatch("d0", 1, 0, hs)
		c.Token(h, 0)
		c.TurnEnd("d0", 1, 0)
		c.Evicted("d0", "m", 0)
		c.RequestDone("r1", 0)
		c.BeginSwitch("d0", "a", "b", 0, false)
		c.SwitchStage("d0", "weight-load", 0, 0)
		c.SwitchVictims("d0", ids)
		c.EndSwitch("d0", 0)
		c.Fault("d0", "crash", "", 0)
		c.Recovery("d0", "failover", 0)
		c.Retry("d0", "fetch", 0)
	})
	if allocs != 0 {
		t.Fatalf("nil collector allocates %v per run", allocs)
	}
	if c.Ring() != nil || c.Requests(10) != nil || c.DeviceTimelines() != nil {
		t.Fatal("nil collector returned data")
	}
	if _, ok := c.Request("r1"); ok {
		t.Fatal("nil collector found a request")
	}
	if sws, total := c.Switches(); sws != nil || total != 0 {
		t.Fatal("nil collector has switches")
	}
}
