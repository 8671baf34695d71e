// Package gpu models the GPU execution substrate that Aegaeon's KV-cache
// synchronization (§5.3) is written against: devices with a compute engine
// and two DMA copy engines (host-to-device and device-to-host), CUDA-like
// streams whose operations execute in submission order, and CUDA-like
// events supporting the API surface of Table 2:
//
//	cudaEventRecord        -> Stream.Record
//	cudaEventQuery         -> Event.Query
//	cudaStreamWaitEvent    -> Stream.WaitEvent
//	cudaIpcGetEventHandle  -> Event.IPCHandle
//	cudaIpcOpenEventHandle -> OpenEventHandle
//
// Operations from different streams that target the same engine are
// serialized FIFO by readiness; operations on different engines overlap.
// Durations are supplied by callers (the latency package knows bandwidths);
// this package enforces ordering and accounts busy time.
//
// A chunked transfer (SubmitChunked) is one op that yields its engine at a
// chunk boundary only when another op is waiting there. Observers see it as
// the per-chunk sequence it replaces: OpObserver gets one OpRecord per
// chunk, with that chunk's own start and end, delivered no later than the
// transfer's next kernel event; BusyObserver gets one busy interval per
// uninterrupted run; PendingOps counts the transfer once.
//
// A run (SubmitRun) is one op of back-to-back steps whose end is planned
// when it starts. Observers see it as the steps it replaces: OpObserver
// gets one OpRecord per step, each earlier step's when the caller settles
// it (SettleStep) and the last one's when the op retires; BusyObserver gets
// one busy interval for the whole run. Work that joins the run's stream or
// engine while it runs cuts it at the end of the step in flight, as CutRun
// does, so that work starts where it would have behind the one step.
package gpu

import (
	"fmt"
	"time"

	"aegaeon/internal/model"
	"aegaeon/internal/sim"
)

// EngineKind selects which hardware engine an operation occupies.
type EngineKind int

const (
	// Compute is the SM array: prefill and decode kernels.
	Compute EngineKind = iota
	// H2D is the host-to-device DMA engine.
	H2D
	// D2H is the device-to-host DMA engine.
	D2H
	// DeviceCopy models on-device memmoves; they occupy the compute engine's
	// copy path but are short. We schedule them on Compute.
)

func (k EngineKind) String() string {
	switch k {
	case Compute:
		return "compute"
	case H2D:
		return "h2d"
	case D2H:
		return "d2h"
	}
	return fmt.Sprintf("engine(%d)", int(k))
}

// OpKind says what an engine operation does. The zero value is an
// unlabelled op. A kind is one byte, so labelling an op builds no string;
// Label formats the human-readable name only when a timeline is exported.
type OpKind uint8

const (
	OpUnlabelled OpKind = iota
	OpPrefill
	OpPrefixReuse
	OpDecode
	OpLoad             // stage-buffer weight load of Model
	OpPrefetch         // §5.2 prefetch of Model
	OpCompact          // on-device compaction of a prefetched Model
	OpCompactResidents // compaction of colocated residents
	OpKVOut            // KV swap-out of sequence Request
	OpKVIn             // KV swap-in of sequence Request
	numOpKinds
)

// opLabels is each kind's label, or its prefix for the kinds Label
// suffixes with the op's model or request.
var opLabels = [numOpKinds]string{
	OpUnlabelled:       "op",
	OpPrefill:          "prefill",
	OpPrefixReuse:      "prefix-reuse",
	OpDecode:           "decode",
	OpLoad:             "load ",
	OpPrefetch:         "prefetch ",
	OpCompact:          "compact ",
	OpCompactResidents: "compact residents",
	OpKVOut:            "kv-out ",
	OpKVIn:             "kv-in ",
}

// OpInfo labels one engine operation for timeline capture: its kind plus
// optional model and request attribution. The model is its dense id
// (model.NoID for none); observers resolve the name only at export. Plain
// Submit leaves it zero; callers that know what an op is and which model or
// request it serves use SubmitOp so the observability layer can build
// per-model and per-request device timelines.
type OpInfo struct {
	Kind    OpKind
	Model   model.ID
	Request string
}

// Label returns the op's display name: "load <model>", "kv-out <request>",
// "decode" and so on, or "op" for an unlabelled op, where modelName is the
// name of the op's model. It allocates for the kinds that name a model or
// request, so only exports and diagnostics call it.
func (i OpInfo) Label(modelName string) string {
	switch i.Kind {
	case OpLoad, OpPrefetch, OpCompact:
		return opLabels[i.Kind] + modelName
	case OpKVOut, OpKVIn:
		return opLabels[i.Kind] + i.Request
	}
	if i.Kind < numOpKinds {
		return opLabels[i.Kind]
	}
	return fmt.Sprintf("op(%d)", i.Kind)
}

// OpRecord is one completed engine interval, reported to the device's
// observer: [Start, End) of exclusive occupancy of one hardware engine.
type OpRecord struct {
	Engine EngineKind
	Info   OpInfo
	Start  sim.Time
	End    sim.Time
}

// OpObserver receives every completed engine operation on a device. It runs
// synchronously on the simulation goroutine as each op retires; it must not
// re-enter the device. Each chunk of a chunked transfer is reported as its
// own op, at the transfer's next kernel event at or after the chunk's end.
type OpObserver func(d *Device, r OpRecord)

// BusyObserver receives engine occupancy edges as they happen: busy=true the
// instant an operation starts executing on an engine, busy=false when it
// retires. Unlike OpObserver (which sees only completed intervals), the
// paired edges let an accounting layer integrate occupancy incrementally and
// classify the op while it runs. A chunked transfer raises one pair per
// uninterrupted run, not one per chunk. It runs synchronously on the
// simulation goroutine; it must not re-enter the device.
type BusyObserver func(d *Device, k EngineKind, info OpInfo, busy bool)

// Run is the plan of a run op: steps back to back on one engine. Next is
// the end of the step in flight, the earliest one not yet settled, and End
// the end of the last. The caller fills both and passes the Run to
// SubmitRun; from then until the op retires the stream owns it: SettleStep
// moves Next to the following step's end, and a cut moves End back to
// Next. The caller may read both. Every step boundary before End must be
// settled before anything at or after its instant happens on the device.
type Run struct {
	Next, End sim.Time
}

// Device is one simulated GPU.
type Device struct {
	Name string

	eng      *sim.Engine
	engines  [3]*executor
	streams  []*Stream
	free     []*op    // retired ops, reused LIFO by newOp
	events   []*event // fired events, reused LIFO by Record
	observer OpObserver
	busyObs  BusyObserver
}

// NewDevice creates a device attached to the simulation engine.
func NewDevice(eng *sim.Engine, name string) *Device {
	d := &Device{Name: name, eng: eng}
	for k := range d.engines {
		x := &executor{eng: eng, dev: d, kind: EngineKind(k)}
		x.retire, x.split = x.finish, x.boundary
		d.engines[k] = x
	}
	return d
}

// Observe registers fn to receive every completed engine operation (nil
// disables capture). At most one observer is active; the hot path pays a
// single nil check when none is registered.
func (d *Device) Observe(fn OpObserver) { d.observer = fn }

// ObserveBusy registers fn to receive engine occupancy edges (nil disables).
// At most one busy observer is active; it is a separate slot from Observe so
// the trace collector and the fleet ledger can coexist on one device.
func (d *Device) ObserveBusy(fn BusyObserver) { d.busyObs = fn }

// NewStream creates an asynchronous work queue on the device.
func (d *Device) NewStream(name string) *Stream {
	s := &Stream{dev: d, name: name}
	d.streams = append(d.streams, s)
	return s
}

// BusyTime returns the cumulative busy duration of one engine, for
// utilization accounting (Fig. 18).
func (d *Device) BusyTime(k EngineKind) time.Duration {
	return d.engines[k].busyTotal(d.eng.Now())
}

// Utilization returns the busy fraction of the engine over [since, now],
// clamped to [0, 1]: when since falls inside a running op, or when the
// caller's busyAtSince snapshot predates the window, the raw ratio can
// stray outside the unit interval even though occupancy cannot.
func (d *Device) Utilization(k EngineKind, since sim.Time, busyAtSince time.Duration) float64 {
	window := d.eng.Now() - since
	if window <= 0 {
		return 0
	}
	u := float64(d.BusyTime(k)-busyAtSince) / float64(window)
	if u < 0 {
		return 0
	}
	if u > 1 {
		return 1
	}
	return u
}

// Sim returns the simulation engine the device is attached to.
func (d *Device) Sim() *sim.Engine { return d.eng }

// op is one unit of stream work: an engine op, a barrier (WaitEvent) or a
// Record marker. Ops are recycled per device: an engine op goes back on the
// device's free list once its onDone callbacks have run, a barrier or marker
// once it leaves the stream head. Nothing outside the package holds an op:
// a caller holds an Event, a handle to the event record the marker fires,
// which the device recycles too. A handle outlives its record's reuse by
// reading as fired (see Event).
type op struct {
	stream  *Stream
	kind    EngineKind
	dur     time.Duration // engine time left; a chunked transfer's shrinks as it yields
	chunk   time.Duration // chunked transfer's chunk length; 0 for a plain op
	run     *Run          // a run's plan; nil for any other op
	queued  sim.Time      // when the op last joined its executor's queue
	info    OpInfo
	onDone  func()
	barrier Event  // non-zero: wait-for-event op (no engine time)
	marker  *event // non-nil: Record marker (no engine time)
	started bool
	waiting bool // barrier op already registered a completion callback
}

// newOp returns a zeroed op of stream s, reusing a retired one if any.
func (s *Stream) newOp() *op {
	d := s.dev
	if n := len(d.free); n > 0 {
		o := d.free[n-1]
		d.free[n-1] = nil
		d.free = d.free[:n-1]
		o.stream = s
		return o
	}
	return &op{stream: s}
}

// release zeroes a retired op, dropping its callback's captures and its
// labels, and returns it to the device's free list.
func (d *Device) release(o *op) {
	*o = op{}
	d.free = append(d.free, o)
}

// opQueue is a FIFO of ops: a slice consumed from a head index. A push that
// would grow the slice first compacts it when at least half is consumed, so
// steady-state traffic reuses one backing array and each op is copied O(1)
// times amortized.
type opQueue struct {
	buf  []*op
	head int
}

func (q *opQueue) len() int { return len(q.buf) - q.head }

func (q *opQueue) front() *op { return q.buf[q.head] }

func (q *opQueue) push(o *op) {
	if len(q.buf) == cap(q.buf) && q.head > 0 && 2*q.head >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, o)
}

// requeue queues o at instant at, behind every queued op except those
// queued at that same instant, which o goes ahead of.
func (q *opQueue) requeue(o *op, at sim.Time) {
	o.queued = at
	q.push(o)
	i := len(q.buf) - 1
	for ; i > q.head && q.buf[i-1].queued == at; i-- {
		q.buf[i] = q.buf[i-1]
	}
	q.buf[i] = o
}

func (q *opQueue) pop() *op {
	o := q.buf[q.head]
	q.buf[q.head] = nil
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return o
}

// Stream is an ordered queue of device operations (a CUDA stream).
type Stream struct {
	dev     *Device
	name    string
	queue   opQueue
	pumping bool
	resume  func() // s.pump, bound on the first barrier wait
	run     *op    // the run executing at the head; nil when none is
}

// SubmitOp is Submit with full op attribution (kind, model and request) for
// the device timeline and the fleet ledger's classification.
func (s *Stream) SubmitOp(k EngineKind, dur time.Duration, info OpInfo, onDone ...func()) {
	var done func()
	switch len(onDone) {
	case 0:
	case 1:
		done = onDone[0]
	default:
		fns := append([]func(){}, onDone...)
		done = func() {
			for _, fn := range fns {
				fn()
			}
		}
	}
	s.submit(k, dur, 0, info, done)
}

// SubmitChunked enqueues a transfer of total engine time on k that runs as
// back-to-back chunks: total/chunk of them, the last one also taking the
// remainder (a total under two chunks is one op). done (optional) fires
// when the last chunk ends.
//
// It behaves like submitting each chunk with SubmitOp, at a fraction of the
// kernel events: the transfer gives up its engine at a chunk boundary only
// when another op is waiting there. An op that joins the engine's queue
// before a boundary runs before the next chunk; one that joins at the
// boundary instant itself runs after it. So an uncontended transfer costs
// two kernel events, one at the start of its last chunk and one at its
// end, whatever its length.
func (s *Stream) SubmitChunked(k EngineKind, total, chunk time.Duration, info OpInfo, done func()) {
	if chunk <= 0 {
		panic(fmt.Sprintf("gpu: non-positive chunk %v (%s, model id %d)", chunk, info.Label(""), info.Model))
	}
	s.submit(k, total, chunk, info, done)
}

// submit enqueues an engine op; chunk is 0 for a plain op.
func (s *Stream) submit(k EngineKind, dur, chunk time.Duration, info OpInfo, done func()) {
	if dur < 0 {
		panic(fmt.Sprintf("gpu: negative op duration %v (%s, model id %d)", dur, info.Label(""), info.Model))
	}
	o := s.newOp()
	o.kind, o.dur, o.chunk, o.info, o.onDone = k, dur, chunk, info, done
	s.push(o)
}

// SubmitRun enqueues the run r plans as one op on engine k: its steps run
// back to back from now, the first ending at r.Next, and done (optional)
// fires when the last one ends, at r.End. The stream and the engine must be
// idle, so the first step starts now, and now < r.Next <= r.End.
func (s *Stream) SubmitRun(k EngineKind, r *Run, info OpInfo, done func()) {
	now := s.dev.eng.Now()
	if r.Next <= now || r.End < r.Next || s.queue.len() > 0 || s.dev.Busy(k) {
		panic(fmt.Sprintf("gpu: run to %v (first step to %v) at %v on a busy %s engine or stream, or out of order",
			r.End, r.Next, now, k))
	}
	o := s.newOp()
	o.kind, o.dur, o.run, o.info, o.onDone = k, r.End-now, r, info, done
	s.push(o)
	s.run = o
}

// SettleStep settles the step in flight of the run at the stream's head,
// which ends at r.Next, where the clock stands, and is not the run's last:
// it delivers the step's OpRecord, and the following step, which starts
// there, ends at next, r.Next < next <= r.End.
func (s *Stream) SettleStep(next sim.Time) {
	o := s.run
	if o == nil {
		panic("gpu: SettleStep with no run executing at stream " + s.name + "'s head")
	}
	x, r := s.dev.engines[o.kind], o.run
	if r.Next >= r.End || r.Next != x.eng.Now() || next <= r.Next || next > r.End {
		panic(fmt.Sprintf("gpu: SettleStep at %v of the step ending %v, next to %v, in a run to %v",
			x.eng.Now(), r.Next, next, r.End))
	}
	if obs := x.dev.observer; obs != nil {
		obs(x.dev, OpRecord{Engine: x.kind, Info: o.info, Start: x.mark, End: r.Next})
	}
	x.mark, r.Next = r.Next, next
}

// CutRun ends the run at the stream's head at the end of its step in
// flight, the first step ending after now: the op retires there, as if it
// had been submitted with that step last. It does nothing when no run is
// executing at the head or its step in flight is its last.
func (s *Stream) CutRun() {
	if o := s.run; o != nil {
		s.dev.engines[o.kind].cutRun()
	}
}

// push queues o on the stream and advances its head. Work queued behind a
// running run cuts it.
func (s *Stream) push(o *op) {
	s.CutRun()
	s.queue.push(o)
	s.pump()
}

// Record captures all work currently submitted to the stream into an event
// (cudaEventRecord): the event completes when that work completes. It is the
// only source of stream completion events.
func (s *Stream) Record() Event {
	ev := s.dev.newEvent()
	o := s.newOp()
	o.marker = ev
	s.push(o)
	return Event{e: ev, gen: ev.gen}
}

// WaitEvent makes all future work on the stream wait for the event
// (cudaStreamWaitEvent). Events from other devices are accepted, mirroring
// the IPC event usage between prefill and decoding instances. A fired or
// stale event lets the stream pass; the zero Event, which no Record
// returned, panics.
func (s *Stream) WaitEvent(e Event) {
	if e.e == nil {
		panic("gpu: WaitEvent on the zero Event")
	}
	o := s.newOp()
	o.barrier = e
	s.push(o)
}

// pump advances the stream head as far as possible.
func (s *Stream) pump() {
	if s.pumping {
		return
	}
	s.pumping = true
	defer func() { s.pumping = false }()
	for s.queue.len() > 0 {
		head := s.queue.front()
		switch {
		case head.barrier.e != nil:
			if !head.barrier.Query() {
				if !head.waiting {
					head.waiting = true
					if s.resume == nil {
						s.resume = s.pump
					}
					head.barrier.OnComplete(s.resume)
				}
				return
			}
			s.dev.release(s.queue.pop())
		case head.marker != nil:
			// Record marker: completes instantly once reached.
			s.queue.pop()
			ev := head.marker
			s.dev.release(head)
			ev.fire()
		default:
			if head.started {
				return // already executing on its engine
			}
			head.started = true
			s.dev.engines[head.kind].enqueue(head)
			return
		}
	}
}

// complete is called by the executor when the head op finishes.
func (s *Stream) complete(o *op) {
	if s.queue.len() == 0 || s.queue.front() != o {
		panic("gpu: completed op is not at stream head")
	}
	s.queue.pop()
	if o == s.run {
		s.run = nil
	}
	if o.onDone != nil {
		o.onDone()
	}
	s.dev.release(o)
	s.pump()
}

// PendingOps returns the number of operations queued on the stream. A
// chunked transfer counts as one operation until its last chunk ends.
func (s *Stream) PendingOps() int { return s.queue.len() }

// Busy reports whether engine k is executing an op or has one queued.
func (d *Device) Busy(k EngineKind) bool {
	x := d.engines[k]
	return x.cur != nil || x.queue.len() > 0
}

// executor serializes ops on one hardware engine, FIFO by readiness. At most
// one op (cur) occupies the engine; its completion event calls retire, the
// executor's finish method bound once at construction, so starting an op
// schedules no per-op closure.
//
// A chunked transfer runs as a run of chunks from busySince. Its one pending
// event is at the start of its last chunk (split, which then schedules
// retire), or, once an op has joined the queue, at the end of the chunk in
// flight (split again, where the run yields). Chunk boundaries in between
// fire nothing.
type executor struct {
	eng    *sim.Engine
	dev    *Device
	kind   EngineKind
	queue  opQueue
	cur    *op // executing op; nil while idle
	retire func()
	split  func() // boundary, bound once like retire

	pending sim.Event // cur's next event
	yieldAt sim.Time  // boundary where cur yields to a queued op; 0 for none
	mark    sim.Time  // start of cur's first chunk not yet reported

	busyAccum time.Duration
	busySince sim.Time
}

func (x *executor) enqueue(o *op) {
	o.queued = x.eng.Now()
	x.queue.push(o)
	switch {
	case x.cur == nil:
		x.kick()
	case x.cur.run != nil:
		x.cutRun()
	case x.cur.chunk > 0 && x.yieldAt == 0:
		x.preempt()
	}
}

// cutRun ends the running run at the end of its step in flight, r.Next:
// a boundary at now has been settled, so the step starting now is the one
// in flight. The op's completion moves there.
func (x *executor) cutRun() {
	o, now := x.cur, x.eng.Now()
	r := o.run
	if r.Next == r.End {
		return
	}
	if r.Next <= now {
		panic(fmt.Sprintf("gpu: run cut at %v with its step ending %v unsettled", now, r.Next))
	}
	r.End = r.Next
	x.pending.Cancel()
	x.pending = x.eng.At(r.End, x.retire)
	o.dur = r.End - x.busySince
}

func (x *executor) kick() {
	if x.cur != nil || x.queue.len() == 0 {
		return
	}
	o := x.queue.pop()
	x.cur = o
	now := x.eng.Now()
	x.busySince, x.mark = now, now
	if bo := x.dev.busyObs; bo != nil {
		bo(x.dev, x.kind, o.info, true)
	}
	if o.chunk == 0 || o.dur < 2*o.chunk {
		x.pending = x.eng.After(o.dur, x.retire)
		return
	}
	x.pending = x.eng.At(now+o.dur/o.chunk*o.chunk-o.chunk, x.split)
	if x.queue.len() > 0 {
		x.preempt()
	}
}

// preempt makes the running chunked transfer yield at the end of the chunk
// in flight, the first boundary after now, unless that chunk is its last. A
// boundary at now itself does not count: its chunk has already begun.
func (x *executor) preempt() {
	o, now := x.cur, x.eng.Now()
	j := (now-x.busySince)/o.chunk + 1
	if j >= o.dur/o.chunk {
		return
	}
	x.yieldAt = x.busySince + j*o.chunk
	if x.yieldAt < x.pending.At() {
		x.pending.Cancel()
		x.pending = x.eng.At(x.yieldAt, x.split)
	}
}

// boundary runs at a chunk boundary of the running transfer: where it
// yields to the queue, or else at the start of its last chunk, where it
// schedules its end.
func (x *executor) boundary() {
	o, now := x.cur, x.eng.Now()
	x.report(o, now)
	ran := now - x.busySince
	if x.yieldAt != now {
		x.pending = x.eng.After(o.dur-ran, x.retire)
		return
	}
	x.yieldAt = 0
	x.cur = nil
	x.busyAccum += ran
	o.dur -= ran
	if bo := x.dev.busyObs; bo != nil {
		bo(x.dev, x.kind, o.info, false)
	}
	x.queue.requeue(o, now)
	x.kick()
}

// report hands the observer every whole chunk of o from mark to until.
func (x *executor) report(o *op, until sim.Time) {
	if obs := x.dev.observer; obs != nil {
		for t := x.mark; t < until; t += o.chunk {
			obs(x.dev, OpRecord{Engine: x.kind, Info: o.info, Start: t, End: t + o.chunk})
		}
	}
	x.mark = until
}

// finish retires cur: the engine goes idle, observers see the interval (a
// chunked transfer's last chunk, a run's last step), the stream completes
// the op, and the next queued op starts.
func (x *executor) finish() {
	o := x.cur
	if r := o.run; r != nil && r.Next != r.End {
		panic(fmt.Sprintf("gpu: run retired at %v with its step ending %v unsettled", x.eng.Now(), r.Next))
	}
	x.cur = nil
	x.busyAccum += x.eng.Now() - x.busySince
	if bo := x.dev.busyObs; bo != nil {
		bo(x.dev, x.kind, o.info, false)
	}
	if obs := x.dev.observer; obs != nil {
		obs(x.dev, OpRecord{Engine: x.kind, Info: o.info, Start: x.mark, End: x.eng.Now()})
	}
	o.stream.complete(o)
	x.kick()
}

func (x *executor) busyTotal(now sim.Time) time.Duration {
	if x.cur != nil {
		return x.busyAccum + (now - x.busySince)
	}
	return x.busyAccum
}

// Event mirrors a CUDA event: a completion marker shareable across streams
// and (via IPC handles) across processes/devices. It is a small value
// handle to an event record that its device recycles: once an event has
// fired and run its waiters, the record goes on the device's free list, and
// the next Record on that device takes it under a new generation. A handle
// whose generation no longer matches is stale, and since a record is only
// reused after it fired, a stale handle reads as fired: Query is true,
// OnComplete runs its callback at once and WaitEvent passes. So a handle
// held past its event (a sequence's last transfer, a resident's load)
// never reaches the record's next occupant. The zero Event refers to no
// event and also reads as fired.
type Event struct {
	e   *event
	gen uint32
}

// event is one recorded event's state. Its waiters slice keeps its
// capacity across reuses, so a warmed event registers waiters without
// allocating.
type event struct {
	dev     *Device // the recycling device; nil for one that is never reused
	gen     uint32
	done    bool
	at      sim.Time
	waiters []func()
}

// newEvent takes a fired event off the device's free list, or allocates one
// when the list is empty, and advances its generation so handles to its
// previous occupant go stale.
func (d *Device) newEvent() *event {
	var ev *event
	if n := len(d.events); n > 0 {
		ev = d.events[n-1]
		d.events[n-1] = nil
		d.events = d.events[:n-1]
	} else {
		ev = &event{dev: d}
	}
	ev.gen++
	ev.done, ev.at = false, 0
	return ev
}

// live returns the handle's event while it still belongs to this handle.
func (h Event) live() *event {
	if h.e == nil || h.e.gen != h.gen {
		return nil
	}
	return h.e
}

// Query reports completion (cudaEventQuery). A stale or zero handle reads
// as complete.
func (h Event) Query() bool {
	ev := h.live()
	return ev == nil || ev.done
}

// CompletedAt returns the virtual time the event fired; valid only when
// Query is true and the handle is not stale (its device has not recorded
// over the event yet). A caller that needs the time later records it from
// OnComplete. It panics on a stale or zero handle, whose time is gone.
func (h Event) CompletedAt() sim.Time {
	ev := h.live()
	if ev == nil {
		panic("gpu: CompletedAt on a stale or zero Event")
	}
	return ev.at
}

// OnComplete registers a host-side callback for the event's completion,
// firing immediately if the event is already done. This models a host
// thread polling cudaEventQuery (§5.3's daemon thread) without busy-wait.
func (h Event) OnComplete(fn func()) {
	ev := h.live()
	if ev == nil || ev.done {
		fn()
		return
	}
	ev.waiters = append(ev.waiters, fn)
}

// fire completes the event, runs its waiters in registration order and
// returns it to its device's free list. A waiter registered during fire
// runs at once, so the list does not grow while it is walked.
func (ev *event) fire() {
	if ev.done {
		panic("gpu: event fired twice")
	}
	ev.done = true
	ev.at = ev.dev.eng.Now()
	for _, fn := range ev.waiters {
		fn()
	}
	clear(ev.waiters)
	ev.waiters = ev.waiters[:0]
	ev.dev.events = append(ev.dev.events, ev)
}

// EventHandle is the IPC-shareable form of an event
// (cudaIpcGetEventHandle / cudaIpcOpenEventHandle).
type EventHandle struct{ e Event }

// IPCHandle exports the event for another instance.
func (h Event) IPCHandle() EventHandle { return EventHandle{e: h} }

// OpenEventHandle reconstructs an event from an IPC handle.
func OpenEventHandle(h EventHandle) Event {
	if h.e.e == nil {
		panic("gpu: OpenEventHandle on zero handle")
	}
	return h.e
}
