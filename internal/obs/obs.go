// Package obs is the observability layer of the serving stack: span-based
// request timelines threaded from the gateway through admission, the
// prefill/decode schedulers, and the simulated GPU substrate; per-device
// engine op timelines; and a switch-cost attributor that decomposes every
// preemptive auto-scaling switch into its §5 stages and charges the exposed
// stall to the victim requests.
//
// The Collector is the single sink. It is nil-safe everywhere — a nil
// *Collector records nothing and allocates nothing, so the serving hot paths
// pay one pointer comparison when observability is off. Flat events live in
// one bounded Ring (ring.go): every collector method that corresponds to a
// scheduler event also emits the matching Event into it, and an event's
// detail text is formatted when it is read, not when it is emitted. Faults,
// recoveries and retries are also kept in a separate small ring, so
// token-batch traffic never pushes them out of the Perfetto export.
//
// Everything the collector retains is bounded: request timelines, per-engine
// op rings, switch records, and per-request token stamps all have caps, so a
// long-running gateway's memory stays flat. Timelines and switch records are
// recycled in their slots with their buffers, which are taken in chunks, so
// a warmed collector allocates nothing per token, per turn or per switch
// (benchmarked at zero allocations).
package obs

import (
	"sort"
	"time"

	"aegaeon/internal/chunk"
	"aegaeon/internal/gpu"
	"aegaeon/internal/model"
	"aegaeon/internal/sim"
)

// maxFaultEvents bounds the fault ring the Perfetto fault track reads.
const maxFaultEvents = 4096

// Span is one closed interval of a request's lifecycle. Detail optionally
// refines the span (a switch-stall span carries the dominant switch stage,
// so SLO miss attribution can tell a reinit stall from a weight-load stall).
type Span struct {
	Name   string   `json:"name"`
	Detail string   `json:"detail,omitempty"`
	Start  sim.Time `json:"start_ns"`
	End    sim.Time `json:"end_ns"`
}

// RequestTimeline is the span tree of one request: arrival, queue-wait,
// prefill, decode-wait, per-turn decode spans, and switch-stall charges, plus
// (capped) per-token completion stamps.
type RequestTimeline struct {
	ID      string   `json:"id"`
	Model   string   `json:"model"`
	Arrival sim.Time `json:"arrival_ns"`
	Spans   []Span   `json:"spans"`
	// Tokens holds the first MaxTokensPerRequest token completion times;
	// TokensTotal counts all of them.
	Tokens      []sim.Time    `json:"tokens_ns"`
	TokensTotal int           `json:"tokens_total"`
	SwitchStall time.Duration `json:"switch_stall_ns"`
	Done        bool          `json:"done"`
	Finished    sim.Time      `json:"finished_ns"`

	// open holds the start of each open span, indexed by kind; a kind is
	// open when its bit is set in openMask. Not exported.
	open     [numSpanKinds]sim.Time
	openMask uint8
}

// spanKind indexes the spans a timeline opens and closes as the request
// moves through the scheduler; every other span arrives already closed.
type spanKind uint8

const (
	spanQueueWait spanKind = iota
	spanPrefill
	spanDecodeWait
	spanDecodeTurn
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	spanQueueWait:  "queue-wait",
	spanPrefill:    "prefill",
	spanDecodeWait: "decode-wait",
	spanDecodeTurn: "decode-turn",
}

// Handle names one request timeline in the collector's bounded timeline
// table: a slot and the generation the slot had when the timeline took it.
// Evicting the timeline frees the slot and advances its generation, so a
// stale handle resolves to nothing. A handle holds no pointer. The zero
// Handle resolves to nothing.
type Handle struct {
	slot int32
	gen  uint32
}

// tlSlot is one entry of the timeline table. A free slot keeps its evicted
// timeline, whose span and token buffers the slot's next request reuses;
// snapshots copy, so nothing outside the collector aliases them.
type tlSlot struct {
	gen uint32 // from 1; a slot is free when it is on freeSlot
	t   *RequestTimeline
}

// SwitchStage is one stage of a model switch (§5): reinit (or gc-pause),
// weight fetch/load, on-device compaction, activation, or exposed KV sync.
type SwitchStage struct {
	Name  string   `json:"name"`
	Start sim.Time `json:"start_ns"`
	End   sim.Time `json:"end_ns"`
}

// SwitchRecord decomposes one preemptive auto-scaling switch: which instance
// switched from which model to which, when, through which stages, and which
// victim requests were stalled by it.
type SwitchRecord struct {
	Instance      string        `json:"instance"`
	From          string        `json:"from"`
	To            string        `json:"to"`
	Start         sim.Time      `json:"start_ns"`
	End           sim.Time      `json:"end_ns"`
	ReinitAvoided bool          `json:"reinit_avoided"`
	Stages        []SwitchStage `json:"stages"`
	Victims       []string      `json:"victims"`
	// DominantStage names the longest stage, settled at EndSwitch — the
	// attribution label for stalls this switch exposed.
	DominantStage string `json:"dominant_stage,omitempty"`
	// Stall is End-Start: the exposed scale-up latency charged to each
	// victim request's timeline.
	Stall time.Duration `json:"stall_ns"`
	done  bool
}

// deviceTimeline holds one bounded op ring per hardware engine of a device.
type deviceTimeline struct {
	name    string
	engines [3]opRing
}

// opRec is one retained engine op: 24 bytes with no pointers, so a full
// ring costs the garbage collector nothing to scan. The engine is implied
// by the ring. hasReq marks an op whose request name went to the ring's
// side ring.
type opRec struct {
	start, end sim.Time
	model      model.ID
	kind       gpu.OpKind
	hasReq     bool
}

// opRing is a bounded ring of one engine's ops. Request names live in a
// side ring of the same capacity that only request-bearing ops push to.
// Every op pushes at most one name, so at most as many names as ops were
// pushed after any retained op, and that op's name is still in the side
// ring: the k-th newest request-bearing retained op owns the k-th newest
// name. Each ring is allocated at its capacity on its first push, so an
// engine that never runs an op costs nothing and a busy one never regrows.
type opRing struct {
	buf   []opRec
	next  int
	total uint64
	reqs  []string
	rnext int
}

func (r *opRing) push(rec gpu.OpRecord, capacity int) {
	o := opRec{start: rec.Start, end: rec.End, model: rec.Info.Model, kind: rec.Info.Kind,
		hasReq: rec.Info.Request != ""}
	if r.buf == nil {
		r.buf = make([]opRec, 0, capacity)
	}
	if len(r.buf) < capacity {
		r.buf = append(r.buf, o)
	} else {
		r.buf[r.next] = o
		r.next = (r.next + 1) % capacity
	}
	r.total++
	if o.hasReq {
		if r.reqs == nil {
			r.reqs = make([]string, 0, capacity)
		}
		if len(r.reqs) < capacity {
			r.reqs = append(r.reqs, rec.Info.Request)
		} else {
			r.reqs[r.rnext] = rec.Info.Request
			r.rnext = (r.rnext + 1) % capacity
		}
	}
}

// ordered rebuilds the retained records of engine k in emission order,
// pairing request-bearing ops with their names newest first.
func (r *opRing) ordered(k gpu.EngineKind) []gpu.OpRecord {
	out := make([]gpu.OpRecord, len(r.buf))
	n := len(r.buf)
	name := len(r.reqs) - 1 // side-ring position of the newest name, unrotated
	for i := n - 1; i >= 0; i-- {
		o := r.buf[(r.next+i)%n]
		rec := gpu.OpRecord{Engine: k, Start: o.start, End: o.end,
			Info: gpu.OpInfo{Kind: o.kind, Model: o.model}}
		if o.hasReq {
			rec.Info.Request = r.reqs[(r.rnext+name)%len(r.reqs)]
			name--
		}
		out[i] = rec
	}
	return out
}

// Options has no fields: the collector's retention bounds are constants.
// bench/perf/gateway.go still passes an Options{}, so the type stays until
// that caller drops it.
type Options struct{}

// Retention bounds.
const (
	// ringCapacity sizes the flat event ring.
	ringCapacity = 16384
	// maxRequests bounds retained request timelines. When full, the oldest
	// completed timeline is evicted (oldest overall if none completed).
	maxRequests = 2048
	// maxOpsPerEngine bounds each device engine's op ring.
	maxOpsPerEngine = 8192
	// maxTokensPerRequest bounds per-request token stamps.
	maxTokensPerRequest = 256
	// maxSwitches bounds retained switch records.
	maxSwitches = 2048
)

// Collector receives observability signals from every layer. All methods are
// safe on a nil receiver (no-ops).
type Collector struct {
	ring   *Ring
	faults *Ring // failure, recovery and retry events only

	models   model.Names
	slots    []tlSlot         // the timeline table
	freeSlot []int32          // free slots, reused LIFO
	reqs     map[string]int32 // request id -> slot
	reqOrder []int32          // slots in admission order, for eviction
	devs     map[string]*deviceTimeline
	devOrder []string
	switches []*SwitchRecord
	swNext   int
	swTotal  uint64
	open     map[string]*SwitchRecord // instance -> in-flight switch
	turnSet  map[string][]Handle      // instance -> timelines of current turn

	// Recycled storage. A timeline slot and a switch ring slot each keep
	// their buffers for their next occupant; these pools carve new ones in
	// chunks and take back those a buffer outgrew.
	timelines chunk.Pool[RequestTimeline]
	stamps    chunk.Pool[sim.Time]
	spans     chunk.Pool[Span]
	records   chunk.Pool[SwitchRecord]
	stages    chunk.Pool[SwitchStage]
	victims   chunk.Pool[string]
}

// The buffers a new timeline or switch record starts with: a timeline's
// token stamps at their cap, and about what most timelines and switches
// need of the rest.
const (
	newTimelineSpans = 16
	newSwitchStages  = 4
	newSwitchVictims = 4
)

// New builds a collector.
func New(Options) *Collector {
	return &Collector{
		ring:    newRing(ringCapacity),
		faults:  newRing(maxFaultEvents),
		reqs:    map[string]int32{},
		devs:    map[string]*deviceTimeline{},
		open:    map[string]*SwitchRecord{},
		turnSet: map[string][]Handle{},
	}
}

// NameModel records the name of model id, which ops, turns and token
// batches carry instead of the name; exports resolve it. A system names its
// models as it is built. Nil-safe.
func (c *Collector) NameModel(id model.ID, name string) {
	if c == nil {
		return
	}
	c.models.Set(id, name)
}

// ModelName returns the name recorded for model id ("" if none). Nil-safe.
func (c *Collector) ModelName(id model.ID) string {
	if c == nil {
		return ""
	}
	return c.models.Name(id)
}

// Ring returns the flat event store (nil on a nil collector).
func (c *Collector) Ring() *Ring {
	if c == nil {
		return nil
	}
	return c.ring
}

// ObserveDevice registers the collector as d's op observer and creates its
// timeline. Nil-safe (leaves the device unobserved). The observer holds the
// timeline, which is never deleted, so an op needs no name lookup.
func (c *Collector) ObserveDevice(d *gpu.Device) {
	if c == nil {
		return
	}
	dt, ok := c.devs[d.Name]
	if !ok {
		dt = &deviceTimeline{name: d.Name}
		c.devs[d.Name] = dt
		c.devOrder = append(c.devOrder, d.Name)
	}
	d.Observe(func(_ *gpu.Device, rec gpu.OpRecord) { c.recordOp(dt, rec) })
}

func (c *Collector) recordOp(dt *deviceTimeline, rec gpu.OpRecord) {
	if int(rec.Engine) < len(dt.engines) {
		dt.engines[rec.Engine].push(rec, maxOpsPerEngine)
	}
}

// timeline returns the request's timeline, or nil if the collector holds
// none (never seen, or evicted).
func (c *Collector) timeline(id string) *RequestTimeline {
	slot, ok := c.reqs[id]
	if !ok {
		return nil
	}
	return c.slots[slot].t
}

// resolve returns the timeline h names, or nil for a stale or zero handle.
func (c *Collector) resolve(h Handle) *RequestTimeline {
	if h.gen == 0 || int(h.slot) >= len(c.slots) {
		return nil
	}
	if s := &c.slots[h.slot]; s.gen == h.gen {
		return s.t
	}
	return nil
}

// handle returns the handle of the timeline in slot.
func (c *Collector) handle(slot int32) Handle {
	return Handle{slot: slot, gen: c.slots[slot].gen}
}

func (c *Collector) evict() {
	for len(c.reqOrder) > maxRequests {
		victim := -1
		for i, slot := range c.reqOrder {
			if c.slots[slot].t.Done {
				victim = i
				break
			}
		}
		if victim < 0 {
			victim = 0 // nothing completed: evict the oldest outright
		}
		slot := c.reqOrder[victim]
		delete(c.reqs, c.slots[slot].t.ID)
		c.slots[slot].gen++
		c.freeSlot = append(c.freeSlot, slot)
		c.reqOrder = append(c.reqOrder[:victim], c.reqOrder[victim+1:]...)
	}
}

// RequestArrived opens a request timeline and its queue-wait span, and
// returns the handle the request's later scheduler events pass. A request
// re-dispatched after failover keeps its original timeline and handle. A
// nil collector returns the zero Handle.
func (c *Collector) RequestArrived(id, model string, at sim.Time) Handle {
	if c == nil {
		return Handle{}
	}
	c.ring.Emit(Event{At: at, Kind: KindArrival, Subject: id, detail: model})
	if slot, ok := c.reqs[id]; ok {
		return c.handle(slot) // re-dispatch after failover
	}
	var slot int32
	if n := len(c.freeSlot); n > 0 {
		slot = c.freeSlot[n-1]
		c.freeSlot = c.freeSlot[:n-1]
	} else {
		slot = int32(len(c.slots))
		c.slots = append(c.slots, tlSlot{gen: 1, t: c.timelines.New()})
	}
	t := c.slots[slot].t
	spans, tokens := t.Spans[:0], t.Tokens[:0]
	if tokens == nil { // a new slot
		spans, tokens = c.spans.Get(newTimelineSpans), c.stamps.Get(maxTokensPerRequest)
	}
	*t = RequestTimeline{ID: id, Model: model, Arrival: at, Spans: spans, Tokens: tokens}
	t.openSpan(spanQueueWait, at)
	c.reqs[id] = slot
	c.reqOrder = append(c.reqOrder, slot)
	h := c.handle(slot)
	c.evict()
	return h
}

// openSpan opens a span of kind k on the request unless one is open.
func (t *RequestTimeline) openSpan(k spanKind, at sim.Time) {
	if t.openMask&(1<<k) == 0 {
		t.openMask |= 1 << k
		t.open[k] = at
	}
}

// closeSpan closes t's span of kind k if open.
func (c *Collector) closeSpan(t *RequestTimeline, k spanKind, at sim.Time) {
	if t.openMask&(1<<k) == 0 {
		return
	}
	t.openMask &^= 1 << k
	t.Spans = c.spans.Append(t.Spans, Span{Name: spanNames[k], Start: t.open[k], End: at})
}

// PrefillStart closes the queue-wait span and opens the prefill span of the
// timeline h names; id is the request's id, for the flat event.
func (c *Collector) PrefillStart(instance, id string, h Handle, at sim.Time) {
	if c == nil {
		return
	}
	c.ring.Emit(Event{At: at, Kind: KindPrefillStart, Instance: instance, Subject: id})
	if t := c.resolve(h); t != nil {
		c.closeSpan(t, spanQueueWait, at)
		t.openSpan(spanPrefill, at)
	}
}

// RequestSpan appends an already-closed span to a request's timeline — used
// for intervals whose endpoints are only known in retrospect, like the
// prefix-cache reuse copy ("prefix-reuse") or the recompute charge of a cold
// conversation ("prefix-recompute"). The span lands in the same timeline the
// miss attributor joins against, so new causes need no new plumbing.
func (c *Collector) RequestSpan(instance, id, name, detail string, start, end sim.Time) {
	if c == nil {
		return
	}
	c.ring.Emit(Event{At: end, Kind: KindPrefix, Instance: instance, Subject: id,
		detail: name + " " + detail})
	if t := c.timeline(id); t != nil {
		t.Spans = c.spans.Append(t.Spans, Span{Name: name, Detail: detail, Start: start, End: end})
	}
}

// PrefillDone closes the prefill span and opens the decode-wait span of the
// timeline h names; id is the request's id, for the flat event.
func (c *Collector) PrefillDone(instance, id string, h Handle, at sim.Time) {
	if c == nil {
		return
	}
	c.ring.Emit(Event{At: at, Kind: KindPrefillDone, Instance: instance, Subject: id})
	if t := c.resolve(h); t != nil {
		c.closeSpan(t, spanPrefill, at)
		t.openSpan(spanDecodeWait, at)
	}
}

// TurnStart records a decode turn of model on the instance: the batch's
// requests close their decode-wait spans and open per-turn decode spans.
func (c *Collector) TurnStart(instance string, model model.ID, at sim.Time, quota time.Duration, reqs []Handle) {
	if c == nil {
		return
	}
	c.ring.Emit(Event{At: at, Kind: KindTurnStart, Instance: instance, Subject: c.models.Name(model),
		form: detailTurn, n: int32(len(reqs)), quota: quota})
	c.turnSet[instance] = append(c.turnSet[instance][:0], reqs...)
	for _, h := range reqs {
		if t := c.resolve(h); t != nil {
			c.closeSpan(t, spanDecodeWait, at)
			t.openSpan(spanDecodeTurn, at)
		}
	}
}

// TurnEnd closes the per-turn decode spans of the turn opened by the last
// TurnStart on the instance and reopens decode-wait for unfinished requests.
func (c *Collector) TurnEnd(instance string, model model.ID, at sim.Time) {
	if c == nil {
		return
	}
	c.ring.Emit(Event{At: at, Kind: KindTurnEnd, Instance: instance, Subject: c.models.Name(model)})
	for _, h := range c.turnSet[instance] {
		if t := c.resolve(h); t != nil {
			c.closeSpan(t, spanDecodeTurn, at)
			if !t.Done {
				t.openSpan(spanDecodeWait, at)
			}
		}
	}
	c.turnSet[instance] = c.turnSet[instance][:0]
}

// TokenBatch records one decode step of model producing a token for each
// request timeline in reqs.
func (c *Collector) TokenBatch(instance string, model model.ID, at sim.Time, reqs []Handle) {
	if c == nil {
		return
	}
	c.ring.Emit(Event{At: at, Kind: KindTokenBatch, Instance: instance, Subject: c.models.Name(model),
		form: detailTokens, n: int32(len(reqs))})
	for _, h := range reqs {
		c.addToken(h, at)
	}
}

// Token records a single token completion (prefill's first token) on the
// timeline h names.
func (c *Collector) Token(h Handle, at sim.Time) {
	if c == nil {
		return
	}
	c.addToken(h, at)
}

func (c *Collector) addToken(h Handle, at sim.Time) {
	t := c.resolve(h)
	if t == nil {
		return
	}
	if len(t.Tokens) < maxTokensPerRequest {
		t.Tokens = append(t.Tokens, at)
	}
	t.TokensTotal++
}

// Evicted records a KV eviction of a victim batch (lazy eviction).
func (c *Collector) Evicted(instance, model string, at sim.Time) {
	if c == nil {
		return
	}
	c.ring.Emit(Event{At: at, Kind: KindEvict, Instance: instance, Subject: model})
}

// RequestDone closes every open span and marks the timeline finished.
func (c *Collector) RequestDone(id string, at sim.Time) {
	if c == nil {
		return
	}
	c.ring.Emit(Event{At: at, Kind: KindRequestDone, Subject: id})
	t := c.timeline(id)
	if t == nil {
		return
	}
	for k := spanKind(0); k < numSpanKinds; k++ {
		c.closeSpan(t, k, at)
	}
	t.Done = true
	t.Finished = at
}

// Fault records an injected or detected failure (instance crash, transfer
// error window, fetch failure, store partition, rejected request).
func (c *Collector) Fault(instance, kind, detail string, at sim.Time) {
	c.fault(Event{At: at, Kind: KindFailure, Instance: instance, Subject: kind, detail: detail})
}

// Recovery records a completed recovery action (failover, orphan
// re-dispatch, breaker close).
func (c *Collector) Recovery(instance, detail string, at sim.Time) {
	c.fault(Event{At: at, Kind: KindRecovery, Instance: instance, detail: detail})
}

// Retry records one backoff retry (fetch, transfer, or metastore op).
func (c *Collector) Retry(instance, what string, at sim.Time) {
	c.fault(Event{At: at, Kind: KindRetry, Instance: instance, Subject: what})
}

// fault emits e into the flat ring and the fault ring. Nil-safe.
func (c *Collector) fault(e Event) {
	if c == nil {
		return
	}
	c.ring.Emit(e)
	c.faults.Emit(e)
}

// BeginSwitch opens a switch record for the instance. The engine calls it
// synchronously at the top of SwitchTo; stages and victims attach while the
// switch is in flight.
func (c *Collector) BeginSwitch(instance, from, to string, at sim.Time, reinitAvoided bool) {
	if c == nil {
		return
	}
	c.ring.Emit(Event{At: at, Kind: KindSwitchStart, Instance: instance, Subject: to, form: detailFrom, detail: from})
	var rec *SwitchRecord
	if len(c.switches) < maxSwitches {
		rec = c.records.New()
		c.switches = append(c.switches, rec)
	} else {
		// Reuse the oldest record in place, unless its switch is somehow
		// still in flight: that one keeps its record.
		if rec = c.switches[c.swNext]; c.open[rec.Instance] == rec {
			rec = c.records.New()
			c.switches[c.swNext] = rec
		}
		c.swNext = (c.swNext + 1) % maxSwitches
	}
	stages, victims := rec.Stages[:0], rec.Victims[:0]
	if stages == nil { // a new record
		stages, victims = c.stages.Get(newSwitchStages), c.victims.Get(newSwitchVictims)
	}
	*rec = SwitchRecord{Instance: instance, From: from, To: to, Start: at, ReinitAvoided: reinitAvoided,
		Stages: stages, Victims: victims}
	c.open[instance] = rec
	c.swTotal++
}

// SwitchStage attaches a completed stage to the instance's in-flight (or
// most recent) switch.
func (c *Collector) SwitchStage(instance, stage string, start, end sim.Time) {
	if c == nil {
		return
	}
	rec := c.open[instance]
	if rec == nil {
		rec = c.lastSwitch(instance)
	}
	if rec != nil {
		rec.Stages = c.stages.Append(rec.Stages, SwitchStage{Name: stage, Start: start, End: end})
	}
}

// SwitchVictims attaches the stalled requests to the instance's in-flight
// switch. Attaching after the switch ended is a no-op: the stall was already
// settled.
func (c *Collector) SwitchVictims(instance string, reqIDs []string) {
	if c == nil || len(reqIDs) == 0 {
		return
	}
	rec := c.open[instance]
	if rec == nil || rec.done {
		return
	}
	rec.Victims = c.victims.Append(rec.Victims, reqIDs...)
}

// EndSwitch closes the instance's in-flight switch, settles its stall, and
// charges it to every victim's timeline as a switch-stall span.
func (c *Collector) EndSwitch(instance string, at sim.Time) {
	if c == nil {
		return
	}
	c.ring.Emit(Event{At: at, Kind: KindSwitchDone, Instance: instance})
	rec := c.open[instance]
	if rec == nil {
		return
	}
	delete(c.open, instance)
	rec.End = at
	rec.Stall = at - rec.Start
	rec.done = true
	rec.DominantStage = dominantStage(rec.Stages)
	for _, id := range rec.Victims {
		if t := c.timeline(id); t != nil {
			t.SwitchStall += rec.Stall
			t.Spans = c.spans.Append(t.Spans, Span{Name: "switch-stall", Detail: rec.DominantStage, Start: rec.Start, End: at})
		}
	}
}

// dominantStage returns the name of the longest stage ("" with no stages).
func dominantStage(stages []SwitchStage) string {
	var name string
	var best time.Duration = -1
	for _, st := range stages {
		if d := st.End - st.Start; d > best {
			best, name = d, st.Name
		}
	}
	return name
}

// lastSwitch returns the most recent switch record of the instance.
func (c *Collector) lastSwitch(instance string) *SwitchRecord {
	for i := 0; i < len(c.switches); i++ {
		idx := (c.swNext - 1 - i + len(c.switches)) % len(c.switches)
		if c.switches[idx] != nil && c.switches[idx].Instance == instance {
			return c.switches[idx]
		}
	}
	return nil
}

// ---- snapshots (debug endpoints, Perfetto export) ----

// Request returns a copy of one request's timeline.
func (c *Collector) Request(id string) (RequestTimeline, bool) {
	if c == nil {
		return RequestTimeline{}, false
	}
	t := c.timeline(id)
	if t == nil {
		return RequestTimeline{}, false
	}
	return t.snapshot(), true
}

func (t *RequestTimeline) snapshot() RequestTimeline {
	out := *t
	out.open, out.openMask = [numSpanKinds]sim.Time{}, 0
	out.Spans = append([]Span(nil), t.Spans...)
	out.Tokens = append([]sim.Time(nil), t.Tokens...)
	// Include still-open spans as zero-End markers so a live request's
	// current phase is visible.
	for k := spanKind(0); k < numSpanKinds; k++ {
		if t.openMask&(1<<k) != 0 {
			out.Spans = append(out.Spans, Span{Name: spanNames[k] + " (open)", Start: t.open[k], End: t.open[k]})
		}
	}
	sort.Slice(out.Spans, func(i, j int) bool { return out.Spans[i].Start < out.Spans[j].Start })
	return out
}

// VisitSpans calls visit for every span of the request overlapping
// [from, to], including still-open spans (treated as extending to `to`).
// It returns false when the request has no retained timeline.
func (c *Collector) VisitSpans(id string, from, to sim.Time, visit func(name, detail string, start, end sim.Time)) bool {
	if c == nil {
		return false
	}
	t := c.timeline(id)
	if t == nil {
		return false
	}
	for _, sp := range t.Spans {
		if sp.End > from && sp.Start < to {
			visit(sp.Name, sp.Detail, sp.Start, sp.End)
		}
	}
	for k := spanKind(0); k < numSpanKinds; k++ {
		if start := t.open[k]; t.openMask&(1<<k) != 0 && start < to {
			visit(spanNames[k], "", start, to)
		}
	}
	return true
}

// Requests returns copies of the most recent n request timelines (all when
// n <= 0), newest last.
func (c *Collector) Requests(n int) []RequestTimeline {
	if c == nil {
		return nil
	}
	slots := c.reqOrder
	if n > 0 && len(slots) > n {
		slots = slots[len(slots)-n:]
	}
	out := make([]RequestTimeline, 0, len(slots))
	for _, slot := range slots {
		out = append(out, c.slots[slot].t.snapshot())
	}
	return out
}

// Switches returns copies of the retained switch records, oldest first, and
// the total number ever recorded.
func (c *Collector) Switches() ([]SwitchRecord, uint64) {
	if c == nil {
		return nil, 0
	}
	out := make([]SwitchRecord, 0, len(c.switches))
	for i := 0; i < len(c.switches); i++ {
		idx := (c.swNext + i) % len(c.switches)
		if c.switches[idx] != nil {
			r := *c.switches[idx]
			r.Stages = append([]SwitchStage(nil), c.switches[idx].Stages...)
			r.Victims = append([]string(nil), c.switches[idx].Victims...)
			out = append(out, r)
		}
	}
	return out, c.swTotal
}

// EngineTimeline is one engine's retained op intervals on one device. Each
// op's Info carries its model id; ModelName resolves it.
type EngineTimeline struct {
	Device string
	Engine gpu.EngineKind
	Ops    []gpu.OpRecord
	Total  uint64
}

// DeviceTimelines returns every device engine's retained ops in emission
// order, devices in registration order.
func (c *Collector) DeviceTimelines() []EngineTimeline {
	if c == nil {
		return nil
	}
	var out []EngineTimeline
	for _, name := range c.devOrder {
		dt := c.devs[name]
		for k := range dt.engines {
			out = append(out, EngineTimeline{
				Device: name,
				Engine: gpu.EngineKind(k),
				Ops:    dt.engines[k].ordered(gpu.EngineKind(k)),
				Total:  dt.engines[k].total,
			})
		}
	}
	return out
}

// GPUUtilization is one device engine's recent busy fraction, computed from
// the retained op ring over [now-window, now].
type GPUUtilization struct {
	Device      string  `json:"device"`
	Engine      string  `json:"engine"`
	Utilization float64 `json:"utilization"`
	Ops         uint64  `json:"ops_total"`
}

// Utilizations computes per-device-engine busy fractions over the trailing
// window ending at now. Ops that fell off the ring undercount long windows;
// callers should keep window within the ring's reach.
func (c *Collector) Utilizations(now sim.Time, window time.Duration) []GPUUtilization {
	if c == nil || window <= 0 {
		return nil
	}
	lo := now - window
	if lo < 0 {
		lo = 0
	}
	span := now - lo
	var out []GPUUtilization
	for _, name := range c.devOrder {
		dt := c.devs[name]
		for k := range dt.engines {
			var busy time.Duration
			for _, op := range dt.engines[k].buf {
				s, e := op.start, op.end
				if e <= lo || s >= now {
					continue
				}
				if s < lo {
					s = lo
				}
				if e > now {
					e = now
				}
				busy += e - s
			}
			u := 0.0
			if span > 0 {
				u = float64(busy) / float64(span)
				if u > 1 {
					u = 1
				}
			}
			out = append(out, GPUUtilization{
				Device:      name,
				Engine:      gpu.EngineKind(k).String(),
				Utilization: u,
				Ops:         dt.engines[k].total,
			})
		}
	}
	return out
}
