package gpu

import (
	"fmt"
	"testing"
	"time"

	"aegaeon/internal/sim"
)

func newDev(seed int64) (*sim.Engine, *Device) {
	eng := sim.NewEngine(seed)
	return eng, NewDevice(eng, "gpu0")
}

func TestStreamOrdering(t *testing.T) {
	eng, d := newDev(1)
	s := d.NewStream("default")
	var order []string
	s.Submit(Compute, 10*time.Millisecond, func() { order = append(order, "a") })
	s.Submit(Compute, 5*time.Millisecond, func() { order = append(order, "b") })
	eng.Run()
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("stream ops out of order: %v", order)
	}
	if eng.Now() != 15*time.Millisecond {
		t.Fatalf("serialized ops finished at %v, want 15ms", eng.Now())
	}
}

func TestEnginesOverlap(t *testing.T) {
	eng, d := newDev(1)
	sc := d.NewStream("compute")
	sh := d.NewStream("h2d")
	var tc, th sim.Time
	sc.Submit(Compute, 10*time.Millisecond, func() { tc = eng.Now() })
	sh.Submit(H2D, 10*time.Millisecond, func() { th = eng.Now() })
	eng.Run()
	if tc != 10*time.Millisecond || th != 10*time.Millisecond {
		t.Fatalf("compute and copy did not overlap: compute=%v h2d=%v", tc, th)
	}
}

func TestSameEngineSerializesAcrossStreams(t *testing.T) {
	eng, d := newDev(1)
	s1 := d.NewStream("s1")
	s2 := d.NewStream("s2")
	var t1, t2 sim.Time
	s1.Submit(H2D, 10*time.Millisecond, func() { t1 = eng.Now() })
	s2.Submit(H2D, 10*time.Millisecond, func() { t2 = eng.Now() })
	eng.Run()
	if t1 != 10*time.Millisecond || t2 != 20*time.Millisecond {
		t.Fatalf("copies on one DMA engine overlapped: t1=%v t2=%v", t1, t2)
	}
}

func TestEventRecordAndQuery(t *testing.T) {
	eng, d := newDev(1)
	s := d.NewStream("s")
	s.Submit(Compute, 10*time.Millisecond)
	ev := s.Record()
	if ev.Query() {
		t.Fatal("event complete before work ran")
	}
	eng.Run()
	if !ev.Query() {
		t.Fatal("event incomplete after work ran")
	}
	if ev.CompletedAt() != 10*time.Millisecond {
		t.Fatalf("event completed at %v, want 10ms", ev.CompletedAt())
	}
}

func TestStreamWaitEvent(t *testing.T) {
	// The §5.3 swap-in scenario: the decode instance's KV-in stream must not
	// start until the prefill instance's swap-out completes (rule ❷).
	eng, d1 := newDev(1)
	d2 := NewDevice(eng, "gpu1")
	out := d1.NewStream("kv-out")
	in := d2.NewStream("kv-in")

	out.Submit(D2H, 30*time.Millisecond)
	evOut := out.Record()

	// Pass the event via an IPC handle as between separate instances.
	in.WaitEvent(OpenEventHandle(evOut.IPCHandle()))
	var tin sim.Time
	in.Submit(H2D, 20*time.Millisecond, func() { tin = eng.Now() })
	eng.Run()
	if tin != 50*time.Millisecond {
		t.Fatalf("swap-in finished at %v, want 50ms (after 30ms swap-out)", tin)
	}
}

func TestWaitEventAlreadyDone(t *testing.T) {
	eng, d := newDev(1)
	s := d.NewStream("s")
	ev := NewCompletedEvent(eng)
	s.WaitEvent(ev)
	done := false
	s.Submit(Compute, time.Millisecond, func() { done = true })
	eng.Run()
	if !done {
		t.Fatal("op behind satisfied barrier never ran")
	}
}

// Three streams wait on one event: the first waiter sits in the event's
// plain field, the others in its slice, and all fire in registration order
// (the compute engine then runs their kernels FIFO by readiness).
func TestMultipleWaitersOneEvent(t *testing.T) {
	eng, d := newDev(1)
	src := d.NewStream("src")
	src.Submit(D2H, 10*time.Millisecond)
	ev := src.Record()
	var done []string
	for _, name := range []string{"a", "b", "c"} {
		w := d.NewStream(name)
		w.WaitEvent(ev)
		w.Submit(Compute, time.Millisecond, func() { done = append(done, name) })
	}
	eng.Run()
	if len(done) != 3 || done[0] != "a" || done[1] != "b" || done[2] != "c" {
		t.Fatalf("waiters ran as %v, want [a b c]", done)
	}
}

func TestOnCompleteHostCallback(t *testing.T) {
	eng, d := newDev(1)
	s := d.NewStream("s")
	s.Submit(D2H, 10*time.Millisecond)
	ev := s.Record()
	var fired sim.Time
	ev.OnComplete(func() { fired = eng.Now() })
	eng.Run()
	if fired != 10*time.Millisecond {
		t.Fatalf("host callback at %v, want 10ms", fired)
	}
	// Immediate fire when already complete.
	hit := false
	ev.OnComplete(func() { hit = true })
	if !hit {
		t.Fatal("OnComplete on done event did not fire immediately")
	}
}

func TestBusyTimeAccounting(t *testing.T) {
	eng, d := newDev(1)
	s := d.NewStream("s")
	s.Submit(Compute, 10*time.Millisecond)
	s.Submit(Compute, 20*time.Millisecond)
	d.NewStream("c").Submit(H2D, 5*time.Millisecond)
	eng.Run()
	if got := d.BusyTime(Compute); got != 30*time.Millisecond {
		t.Fatalf("compute busy = %v, want 30ms", got)
	}
	if got := d.BusyTime(H2D); got != 5*time.Millisecond {
		t.Fatalf("h2d busy = %v, want 5ms", got)
	}
	if got := d.BusyTime(D2H); got != 0 {
		t.Fatalf("d2h busy = %v, want 0", got)
	}
}

func TestUtilization(t *testing.T) {
	eng, d := newDev(1)
	s := d.NewStream("s")
	s.Submit(Compute, 250*time.Millisecond)
	eng.Run()
	eng.At(time.Second, func() {}) // advance the clock to 1s
	eng.Run()
	u := d.Utilization(Compute, 0, 0)
	if u < 0.24 || u > 0.26 {
		t.Fatalf("utilization = %.3f, want 0.25", u)
	}
}

func TestPendingOps(t *testing.T) {
	eng, d := newDev(1)
	s := d.NewStream("s")
	s.Submit(Compute, time.Second)
	s.Submit(Compute, time.Second)
	if s.PendingOps() != 2 {
		t.Fatalf("pending = %d, want 2", s.PendingOps())
	}
	eng.Run()
	if s.PendingOps() != 0 {
		t.Fatalf("pending after run = %d", s.PendingOps())
	}
}

func TestZeroDurationOp(t *testing.T) {
	eng, d := newDev(1)
	s := d.NewStream("s")
	ran := false
	s.Submit(Compute, 0, func() { ran = true })
	eng.Run()
	if !ran {
		t.Fatal("zero-duration op never completed")
	}
}

func TestNegativeDurationPanics(t *testing.T) {
	_, d := newDev(1)
	defer func() {
		if recover() == nil {
			t.Error("negative-duration Submit did not panic")
		}
	}()
	d.NewStream("s").Submit(Compute, -time.Second)
}

func TestWaitNilEventPanics(t *testing.T) {
	_, d := newDev(1)
	defer func() {
		if recover() == nil {
			t.Error("WaitEvent on the zero Event did not panic")
		}
	}()
	d.NewStream("s").WaitEvent(Event{})
}

// The Figure 10 scenario end to end: prefill offloads R1..R3 while a decode
// instance waits per-request; decoding of R1 must start as soon as R1's
// swap-in completes, not when the whole batch is in.
func TestFigure10FineGrainedOverlap(t *testing.T) {
	eng := sim.NewEngine(1)
	prefill := NewDevice(eng, "prefill0")
	decode := NewDevice(eng, "decode0")
	pOut := prefill.NewStream("kv-out")
	dIn := decode.NewStream("kv-in")
	dCompute := decode.NewStream("default")

	const per = 10 * time.Millisecond
	var swapInDone [3]Event
	for i := 0; i < 3; i++ {
		pOut.Submit(D2H, per)
		outEv := pOut.Record()
		dIn.WaitEvent(outEv)
		dIn.Submit(H2D, per)
		swapInDone[i] = dIn.Record()
	}
	var decodeStart sim.Time
	swapInDone[0].OnComplete(func() {
		decodeStart = eng.Now()
		dCompute.Submit(Compute, 5*time.Millisecond)
	})
	eng.Run()
	// R1 out: 10ms, R1 in: 20ms. Decode must start at 20ms, while R2/R3 are
	// still transferring (R3 in completes at 40ms).
	if decodeStart != 20*time.Millisecond {
		t.Fatalf("decode started at %v, want 20ms (fine-grained sync)", decodeStart)
	}
	if swapInDone[2].CompletedAt() != 40*time.Millisecond {
		t.Fatalf("R3 swap-in at %v, want 40ms", swapInDone[2].CompletedAt())
	}
}

// Property: under arbitrary cross-stream WaitEvent edges (a random DAG),
// (1) all ops eventually complete, (2) per-stream order is preserved, and
// (3) no op starts before an event it waits on has completed.
func TestRandomDAGProperty(t *testing.T) {
	quickCheck := func(seed int64) bool {
		eng := sim.NewEngine(seed)
		rng := eng.Rand()
		d1 := NewDevice(eng, "d1")
		d2 := NewDevice(eng, "d2")
		streams := []*Stream{
			d1.NewStream("a"), d1.NewStream("b"), d2.NewStream("c"),
		}
		type rec struct {
			stream  int
			doneAt  sim.Time
			waitFor []Event
		}
		var recs []*rec
		var events []Event
		for i := 0; i < 40; i++ {
			si := rng.Intn(len(streams))
			s := streams[si]
			r := &rec{stream: si}
			// Random cross-stream dependency on an earlier event.
			if len(events) > 0 && rng.Intn(2) == 0 {
				ev := events[rng.Intn(len(events))]
				s.WaitEvent(ev)
				r.waitFor = append(r.waitFor, ev)
			}
			kind := EngineKind(rng.Intn(3))
			dur := time.Duration(rng.Intn(10)+1) * time.Millisecond
			s.Submit(kind, dur, func() { r.doneAt = eng.Now() })
			ev := s.Record()
			events = append(events, ev)
			recs = append(recs, r)
		}
		eng.Run()
		// (1) all complete
		for _, ev := range events {
			if !ev.Query() {
				return false
			}
		}
		// (2) per-stream order: completion times of ops on one stream are
		// non-decreasing in submission order.
		last := map[int]sim.Time{}
		for _, r := range recs {
			if r.doneAt < last[r.stream] {
				return false
			}
			last[r.stream] = r.doneAt
		}
		// (3) dependencies respected: an op completes no earlier than the
		// events it waited on.
		for i, r := range recs {
			for _, ev := range r.waitFor {
				if r.doneAt < ev.CompletedAt() {
					_ = i
					return false
				}
			}
		}
		return true
	}
	for seed := int64(1); seed <= 50; seed++ {
		if !quickCheck(seed) {
			t.Fatalf("DAG property violated at seed %d", seed)
		}
	}
}

// Every onDone callback passed to one Submit fires, in argument order,
// before the completion event recorded behind the op.
func TestSubmitCallbacksInOrder(t *testing.T) {
	eng, d := newDev(1)
	s := d.NewStream("s")
	var order []string
	var ev Event
	s.Submit(Compute, time.Millisecond,
		func() { order = append(order, "a") },
		func() { order = append(order, "b") },
		func() {
			if ev.Query() {
				t.Error("completion event fired before the callbacks")
			}
			order = append(order, "c")
		})
	ev = s.Record()
	eng.Run()
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("callbacks ran as %v, want [a b c]", order)
	}
	if !ev.Query() {
		t.Fatal("completion event did not fire")
	}
}

// The op queue stays FIFO through interleaved pushes and pops, and a
// bounded backlog keeps a bounded backing array.
func TestOpQueueFIFO(t *testing.T) {
	var q opQueue
	var model []*op
	ops := make([]*op, 64)
	for i := range ops {
		ops[i] = &op{}
	}
	next := 0
	for step := 0; step < 10_000; step++ {
		if step%3 != 2 || len(model) < 8 {
			if len(model) < 40 {
				q.push(ops[next%len(ops)])
				model = append(model, ops[next%len(ops)])
				next++
				continue
			}
		}
		if got := q.pop(); got != model[0] {
			t.Fatalf("step %d: popped the wrong op", step)
		}
		model = model[1:]
		if q.len() != len(model) {
			t.Fatalf("step %d: len = %d, want %d", step, q.len(), len(model))
		}
	}
	// Compaction runs once half the array is consumed, so the array holds
	// at most twice the backlog before append's growth factor.
	if c := cap(q.buf); c > 4*40 {
		t.Fatalf("backing array grew to %d for a backlog of at most 40", c)
	}
}

// A retired op goes back on its device's free list, so a warmed Submit+Run
// allocates nothing. Labelling an op costs nothing either: SubmitOp+Run of
// every kind, with model and request attribution set, allocates 0.
func TestSubmitRunAllocs(t *testing.T) {
	eng, d := newDev(1)
	s := d.NewStream("s")
	for i := 0; i < 64; i++ {
		s.Submit(Compute, time.Microsecond)
	}
	eng.Run()
	if n := testing.AllocsPerRun(1000, func() {
		s.Submit(Compute, time.Microsecond)
		eng.Run()
	}); n != 0 {
		t.Fatalf("Submit+Run allocates %.1f times per op, want 0", n)
	}
	for k := OpUnlabelled + 1; k < numOpKinds; k++ {
		info := OpInfo{Kind: k, Model: 1, Request: "r1"}
		if n := testing.AllocsPerRun(1000, func() {
			s.SubmitOp(Compute, time.Microsecond, info)
			eng.Run()
		}); n != 0 {
			t.Errorf("SubmitOp+Run of %q allocates %.1f times, want 0", info.Label("m1"), n)
		}
	}
}

// A barrier on an event that is already complete passes at once and its op
// is recycled: a warmed WaitEvent allocates nothing.
func TestWaitEventDoneAllocs(t *testing.T) {
	eng, d := newDev(1)
	s := d.NewStream("s")
	done := NewCompletedEvent(eng)
	s.WaitEvent(done)
	if n := testing.AllocsPerRun(1000, func() { s.WaitEvent(done) }); n != 0 {
		t.Fatalf("WaitEvent on a complete event allocates %.1f times, want 0", n)
	}
	if s.PendingOps() != 0 {
		t.Fatalf("satisfied barriers left %d ops queued", s.PendingOps())
	}
}

// Record is the only source of completion events: an op's event is Submit
// followed by Record. Property over 2 devices x 3 streams with random
// Submit, Record and WaitEvent calls (cross-device barriers included), some
// issued from inside onDone callbacks at later virtual times, so later
// Records reuse the event records of earlier ones that fired:
//
//  1. a Record event completes at its stream's tail: the End of the last op
//     submitted before it, or later only when a barrier between them held
//     the stream (or the stream was idle when Record was called);
//  2. its waiters run after that op's onDone and before the stream's next
//     op starts;
//  3. no device's free lists grow past the peak number of its ops, or of
//     its events, in flight;
//  4. after the run every handle reads as fired, stale or not, and a late
//     OnComplete on it runs at once.
func TestRecordAfterSubmitMatchesOp(t *testing.T) {
	stale := 0
	for seed := int64(1); seed <= 100; seed++ {
		stale += checkRecordAfterSubmit(t, seed)
	}
	if stale == 0 {
		t.Fatal("no Record reused a fired event's record")
	}
}

// checkRecordAfterSubmit runs one seed and returns how many of its Record
// handles went stale.
func checkRecordAfterSubmit(t *testing.T, seed int64) int {
	t.Helper()
	eng := sim.NewEngine(seed)
	rng := eng.Rand()
	devs := []*Device{NewDevice(eng, "d0"), NewDevice(eng, "d1")}
	var streams []*Stream
	for _, d := range devs {
		for _, name := range []string{"a", "b", "c"} {
			streams = append(streams, d.NewStream(name))
		}
	}

	// One entry per submission, in per-stream order.
	type item struct {
		op       bool     // engine op
		barrier  bool     // WaitEvent; neither flag set: Record marker
		ev       Event    // Record's event, or the barrier's awaited event
		src      *item    // barrier: the Record it awaits; nil for a complete event
		calledAt sim.Time // virtual time of the call
		end      sim.Time // op: End, from its onDone
		doneSeq  int      // op: step of its onDone
		startSeq int      // op: step it started on its engine (0 = never seen)
		waitSeq  int      // marker: step its waiter ran
		firedAt  sim.Time // marker: when its waiter ran
	}
	perStream := map[*Stream][]*item{}
	ops := map[string]*item{}
	var records []*item
	step := 0
	next := func() int { step++; return step }
	for _, d := range devs {
		d.ObserveBusy(func(_ *Device, _ EngineKind, info OpInfo, busy bool) {
			if busy {
				ops[info.Request].startSeq = next()
			}
		})
	}

	// Ops in flight on a device: queued on its streams, plus the one whose
	// onDone is running (popped, not yet released). Events in flight:
	// recorded and not yet fired.
	peak, peakEv := map[*Device]int{}, map[*Device]int{}
	inDone, inFlightEv := map[*Device]int{}, map[*Device]int{}
	noteCall := func(s *Stream) {
		n := inDone[s.dev] + 1
		for _, o := range s.dev.streams {
			n += o.PendingOps()
		}
		peak[s.dev] = max(peak[s.dev], n)
	}

	budget := 120
	var act func()
	act = func() {
		if budget == 0 {
			return
		}
		budget--
		s := streams[rng.Intn(len(streams))]
		it := &item{calledAt: eng.Now()}
		perStream[s] = append(perStream[s], it)
		noteCall(s)
		switch r := rng.Intn(4); {
		case r < 2:
			it.op = true
			id := fmt.Sprint("op", len(ops))
			ops[id] = it
			dur := time.Duration(rng.Intn(5)) * time.Millisecond
			s.SubmitOp(EngineKind(rng.Intn(3)), dur, OpInfo{Request: id}, func() {
				it.end, it.doneSeq = eng.Now(), next()
				inDone[s.dev]++
				if rng.Intn(3) == 0 {
					act()
				}
				inDone[s.dev]--
			})
		case r == 2:
			// Counted before the call: a Record made inside an onDone fires
			// the markers queued behind that op within the call.
			inFlightEv[s.dev]++
			peakEv[s.dev] = max(peakEv[s.dev], inFlightEv[s.dev])
			it.ev = s.Record()
			records = append(records, it)
			it.ev.OnComplete(func() {
				it.waitSeq, it.firedAt = next(), eng.Now()
				inFlightEv[s.dev]--
			})
		default:
			it.barrier = true
			it.ev = NewCompletedEvent(eng)
			if len(records) > 0 {
				it.src = records[rng.Intn(len(records))]
				it.ev = it.src.ev
			}
			s.WaitEvent(it.ev)
		}
	}
	for budget > 60 {
		act()
	}
	eng.Run()

	for _, s := range streams {
		var tail sim.Time // completion time of the previous item
		var prevOp *item
		items := perStream[s]
		for i, it := range items {
			switch {
			case it.op:
				if it.doneSeq == 0 {
					t.Fatalf("seed %d: op never completed", seed)
				}
				tail, prevOp = it.end, it
			case it.barrier:
				tail = max(tail, it.calledAt)
				if it.src != nil {
					tail = max(tail, it.src.firedAt)
				}
			default:
				if it.waitSeq == 0 {
					t.Fatalf("seed %d: Record event never completed", seed)
				}
				if want := max(tail, it.calledAt); it.firedAt != want {
					t.Fatalf("seed %d, stream %s/%s: Record completed at %v, want %v",
						seed, s.dev.Name, s.name, it.firedAt, want)
				}
				if prevOp != nil && it.waitSeq < prevOp.doneSeq {
					t.Fatalf("seed %d: Record waiter ran before the op's onDone", seed)
				}
				for _, later := range items[i+1:] {
					if later.op {
						if later.startSeq < it.waitSeq {
							t.Fatalf("seed %d: stream's next op started before the Record waiter ran", seed)
						}
						break
					}
				}
			}
		}
	}
	for _, d := range devs {
		if len(d.free) > peak[d] {
			t.Fatalf("seed %d, %s: free list holds %d ops, peak in flight was %d",
				seed, d.Name, len(d.free), peak[d])
		}
		if len(d.events) > peakEv[d] {
			t.Fatalf("seed %d, %s: free list holds %d events, peak in flight was %d",
				seed, d.Name, len(d.events), peakEv[d])
		}
	}
	stale := 0
	for _, it := range records {
		if it.ev.live() == nil {
			stale++
		}
		if !it.ev.Query() {
			t.Fatalf("seed %d: a fired event's handle reads as pending", seed)
		}
		late := false
		it.ev.OnComplete(func() { late = true })
		if !late {
			t.Fatalf("seed %d: OnComplete on a fired event's handle did not run at once", seed)
		}
	}
	return stale
}

// Each kind's Label is the string its call site built before ops carried a
// kind, so exported timelines keep their names.
func TestOpKindLabels(t *testing.T) {
	cases := []struct {
		info OpInfo
		want string
	}{
		{OpInfo{}, "op"},
		{OpInfo{Kind: OpPrefill, Model: 1, Request: "r1"}, "prefill"},
		{OpInfo{Kind: OpPrefixReuse, Model: 1, Request: "r1"}, "prefix-reuse"},
		{OpInfo{Kind: OpDecode, Model: 1}, "decode"},
		{OpInfo{Kind: OpLoad, Model: 1}, "load m1"},
		{OpInfo{Kind: OpPrefetch, Model: 1}, "prefetch m1"},
		{OpInfo{Kind: OpCompact, Model: 1}, "compact m1"},
		{OpInfo{Kind: OpCompactResidents, Model: 1}, "compact residents"},
		{OpInfo{Kind: OpKVOut, Request: "r1"}, "kv-out r1"},
		{OpInfo{Kind: OpKVIn, Request: "r1"}, "kv-in r1"},
		{OpInfo{Kind: numOpKinds}, fmt.Sprintf("op(%d)", numOpKinds)},
	}
	for _, c := range cases {
		if got := c.info.Label("m1"); got != c.want {
			t.Errorf("Label(%+v) = %q, want %q", c.info, got, c.want)
		}
	}
}

// A fired event's record is reused by the device's next Record, and keeps
// its waiter slice's capacity: a warmed Record, three OnCompletes and Run
// allocate nothing.
func TestRecordOneWaiterAllocs(t *testing.T) {
	eng, d := newDev(1)
	s := d.NewStream("s")
	fired := 0
	waiter := func() { fired++ }
	cycle := func() {
		s.Submit(Compute, time.Microsecond)
		ev := s.Record()
		for range 3 {
			ev.OnComplete(waiter)
		}
		eng.Run()
	}
	cycle()
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Fatalf("Record+OnComplete+Run allocates %.1f times, want 0", n)
	}
	if fired != 3*1002 {
		t.Fatalf("waiter fired %d times, want %d", fired, 3*1002)
	}
}

// Stale handles: many Records through one event record, every old handle
// kept. Each reads as fired, runs a late OnComplete at once, lets a
// WaitEvent pass, and never sees the record's next occupant: callbacks
// registered on an old handle never run when the occupant fires, and the
// occupant's own waiters run exactly once.
func TestStaleEventHandles(t *testing.T) {
	eng, d := newDev(1)
	s, w := d.NewStream("s"), d.NewStream("w")
	var old []Event
	for i := range 50 {
		s.Submit(Compute, time.Millisecond)
		ev := s.Record()
		if i > 0 && ev.e != old[0].e {
			t.Fatalf("Record %d took a new event record; want the fired one reused", i)
		}
		for _, h := range old {
			if !h.Query() {
				t.Fatalf("Record %d: an old handle reads as pending", i)
			}
			ran := false
			h.OnComplete(func() { ran = true })
			if !ran {
				t.Fatalf("Record %d: OnComplete on an old handle did not run at once", i)
			}
			// A barrier on the old handle passes while ev is pending.
			w.WaitEvent(h)
			if w.PendingOps() != 0 {
				t.Fatalf("Record %d: a barrier on an old handle held the stream", i)
			}
		}
		if ev.Query() {
			t.Fatalf("Record %d: fresh event reads as fired before its work ran", i)
		}
		fired := 0
		ev.OnComplete(func() { fired++ })
		eng.Run()
		if fired != 1 || ev.CompletedAt() != eng.Now() {
			t.Fatalf("Record %d: waiter ran %d times, event at %v; want once at %v",
				i, fired, ev.CompletedAt(), eng.Now())
		}
		old = append(old, ev)
	}
	if len(d.events) != 1 {
		t.Fatalf("device holds %d event records, want 1", len(d.events))
	}
	defer func() {
		if recover() == nil {
			t.Error("CompletedAt on a stale handle did not panic")
		}
	}()
	old[0].CompletedAt()
}

// TestChunkedTransferTwoEvents: an uncontended chunked transfer fires one
// kernel event at the start of its last chunk and one at its end, and its
// observer still sees every chunk.
func TestChunkedTransferTwoEvents(t *testing.T) {
	eng, d := newDev(1)
	var recs []OpRecord
	d.Observe(func(_ *Device, r OpRecord) { recs = append(recs, r) })
	var done sim.Time
	// 110 ms in 25 ms chunks: three of 25 ms and a last one of 35 ms.
	d.NewStream("load").SubmitChunked(H2D, 110*time.Millisecond, 25*time.Millisecond, OpInfo{Kind: OpLoad, Model: 1}, func() { done = eng.Now() })
	eng.Run()
	if done != 110*time.Millisecond || eng.Processed() != 2 {
		t.Fatalf("transfer done at %v after %d events, want 110ms after 2", done, eng.Processed())
	}
	ends := []sim.Time{25 * time.Millisecond, 50 * time.Millisecond, 75 * time.Millisecond, 110 * time.Millisecond}
	if len(recs) != len(ends) {
		t.Fatalf("observer saw %d chunks, want %d: %v", len(recs), len(ends), recs)
	}
	start := sim.Time(0)
	for i, r := range recs {
		if r.Start != start || r.End != ends[i] || r.Info.Kind != OpLoad {
			t.Fatalf("chunk %d = %+v, want [%v, %v) labelled load", i, r, start, ends[i])
		}
		start = r.End
	}
	if d.BusyTime(H2D) != 110*time.Millisecond {
		t.Fatalf("busy %v, want 110ms", d.BusyTime(H2D))
	}
}

// TestChunkBoundaryInstant pins where an op that joins the engine's queue
// during a 100 ms transfer of four 25 ms chunks runs. One that joins before
// a boundary runs at it. One that joins at the boundary instant runs after
// the chunk that starts there, even when its submission was scheduled more
// than a chunk earlier (per-chunk ops would have run it first then). One
// that joins during the last chunk, or at its start, waits for the end.
func TestChunkBoundaryInstant(t *testing.T) {
	const c = 25 * time.Millisecond
	for _, tc := range []struct {
		name         string
		scheduledAt  sim.Time // when the submitting event is scheduled
		at           sim.Time // when it fires and submits the 10 ms op
		opEnd, xfEnd sim.Time
	}{
		{"1ns before the boundary", 40 * time.Millisecond, 2*c - 1, 2*c + 10*time.Millisecond, 110 * time.Millisecond},
		{"at the boundary, scheduled within a chunk", 30 * time.Millisecond, 2 * c, 3*c + 10*time.Millisecond, 110 * time.Millisecond},
		{"at the boundary, scheduled two chunks before", 0, 2 * c, 3*c + 10*time.Millisecond, 110 * time.Millisecond},
		{"at the start of the last chunk", 0, 3 * c, 110 * time.Millisecond, 100 * time.Millisecond},
		{"inside the last chunk", 0, 3*c + 1, 110 * time.Millisecond, 100 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, d := newDev(1)
			var opEnd, xfEnd sim.Time
			kv := d.NewStream("kv")
			eng.At(tc.scheduledAt, func() {
				eng.At(tc.at, func() {
					kv.SubmitOp(H2D, 10*time.Millisecond, OpInfo{Kind: OpKVIn}, func() { opEnd = eng.Now() })
				})
			})
			d.NewStream("load").SubmitChunked(H2D, 4*c, c, OpInfo{Kind: OpLoad}, func() { xfEnd = eng.Now() })
			eng.Run()
			if opEnd != tc.opEnd || xfEnd != tc.xfEnd {
				t.Fatalf("op done at %v, transfer at %v; want %v and %v", opEnd, xfEnd, tc.opEnd, tc.xfEnd)
			}
		})
	}
}
