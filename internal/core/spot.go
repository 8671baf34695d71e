package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"aegaeon/internal/decision"
	"aegaeon/internal/engine"
	"aegaeon/internal/kvcache"
	"aegaeon/internal/memory"
	"aegaeon/internal/sim"
)

// Spot-market lifecycle. A marketplace reclaim arrives as an advance notice:
// the device keeps working for a grace window, then is hard-revoked
// (fail-stop, exactly the §6 crash). What the grace window buys depends on
// the placement mode:
//
//   - spot-aware: the notice immediately excludes the device from placement,
//     queued work re-homes across the surviving pool, decode KV is offloaded
//     to the unified CPU tier (each request re-dispatches as soon as its
//     offload lands), and prefix-cache device copies are dropped in favor of
//     their host-tier copies. Revocation then costs a bounded exposed stall —
//     a swap-in on the new instance — instead of orphan re-prefill.
//   - spot-naive: no advance action. Everything GPU-resident at the deadline
//     is lost and recovers through the crash path (full context recompute).
//
// Either way the revocation itself reuses CrashInstance, so a missed
// evacuation deadline degrades gracefully into the existing recovery
// machinery rather than a distinct failure mode.

// ReclaimInstance delivers a spot preemption notice for the named instance:
// grace to evacuate, then hard revocation.
func (s *System) ReclaimInstance(name string, grace sim.Time) error {
	mkt := s.cfg.Market
	if !mkt.Enabled() {
		return fmt.Errorf("core: spot reclaim without a market model")
	}
	if !s.AliveNamed(name) {
		return fmt.Errorf("core: no live instance named %q", name)
	}
	if err := mkt.Notice(name, grace); err != nil {
		return err
	}
	s.obs.Fault(name, "reclaim", fmt.Sprintf("spot preemption notice, grace %v", grace), s.eng.Now())
	if j := s.dec; j != nil {
		j.Record(decision.Record{At: s.eng.Now(), Kind: decision.KindEvacuation,
			Instance: name, Outcome: "notice",
			Reason: "spot preemption notice",
			Inputs: []decision.Term{
				decision.NsTerm("grace", grace),
				decision.BoolTerm("market_aware", mkt.Aware()),
			}})
	}
	if mkt.Aware() {
		s.evacuateInstance(name)
	}
	s.eng.After(grace, func() { s.revokeInstance(name) })
	return nil
}

// ThrottleInstance applies a thermal-throttle slowdown to the named
// instance's compute for d: prefills and decode steps stretch by factor, and
// the market (when on) discounts the device's capability so aware placement
// prices the slowdown into its score. The throttle clears itself when the
// window ends.
func (s *System) ThrottleInstance(name string, factor float64, d sim.Time) error {
	var e *engine.Engine
	switch pi, di := s.instanceNamed(name); {
	case pi != nil:
		e = pi.eng
	case di != nil:
		e = di.eng
	default:
		return fmt.Errorf("core: no instance named %q", name)
	}
	if factor < 1 {
		return fmt.Errorf("core: throttle factor %v < 1", factor)
	}
	e.SetThrottle(factor)
	if s.cfg.Market.Enabled() {
		_ = s.cfg.Market.Throttle(name, factor)
	}
	s.obs.Fault(name, "throttle", fmt.Sprintf("thermal throttle x%.2f for %v", factor, d), s.eng.Now())
	s.eng.After(d, func() {
		e.SetThrottle(0)
		s.cfg.Market.ClearThrottle(name)
	})
	return nil
}

// evacuateInstance starts the aware-mode drain of a noticed instance.
func (s *System) evacuateInstance(name string) {
	switch p, d := s.instanceNamed(name); {
	case p != nil:
		s.evacuatePrefill(p)
	case d != nil:
		s.evacuateDecode(d)
	}
}

// evacuatePrefill re-homes a noticed prefill instance's work: queued groups
// re-dispatch across the surviving pool (the open notice already excludes
// this instance from placement), the in-flight job finishes normally inside
// the grace window, and prefix-cache device copies are evicted — their
// host-tier copies keep serving hits, so the bytes are re-homed, not lost.
func (s *System) evacuatePrefill(p *prefillInstance) {
	owned := slices.DeleteFunc(p.owned(), func(r *Request) bool { return r == p.inflight })
	for _, g := range p.queue {
		g.reqs = nil
	}
	p.queue = nil
	var rehomed int64
	if s.prefix != nil {
		if dev := s.prefix.DeviceResidentBytes(p.eng.Name); dev > 0 {
			rehomed = s.prefix.EvictDeviceBytes(p.eng.Name, dev)
			s.cfg.Market.NoteRehomedPrefix(p.eng.Name, rehomed)
		}
	}
	if j := s.dec; j != nil {
		j.Record(decision.Record{At: s.eng.Now(), Kind: decision.KindEvacuation,
			Instance: p.eng.Name, Outcome: "drain_prefill",
			Reason:   "re-home queued groups; drop device prefix copies",
			Requests: s.requestIDs(owned),
			Inputs: []decision.Term{
				{Name: "rehomed_requests", Value: float64(len(owned))},
				{Name: "rehomed_prefix_bytes", Value: float64(rehomed)},
			}})
	}
	for _, r := range owned {
		s.dispatchPrefill(r)
	}
}

// evacuateDecode drains a noticed decode instance: every owned request is
// removed from its queues, sequences already host-resident re-home
// immediately, and GPU-resident sequences offload to the host tier with the
// request re-dispatching as soon as its transfer lands. The instance's event
// machinery (an in-flight turn, step callbacks) winds down on its own once
// the batches are empty; anything still in flight at the deadline is
// revokeInstance's problem.
func (s *System) evacuateDecode(d *decodeInstance) {
	d.cut() // the run's members leave its batch
	owned := d.owned()
	for _, b := range d.workList {
		b.reqs = nil
	}
	if b := d.current; b != nil {
		b.reqs = nil
	}
	d.workList = nil
	d.pending = nil
	// Detach the executing batch: it is no longer in the work list, so a
	// request that re-homes back here (placement waives the exclusion when
	// this is the last survivor) must not join it — the batch is dropped at
	// turn end and anything riding it would be stranded in no queue. With
	// current nil such requests land in pending and a fresh round serves
	// them until the deadline; the in-flight turn winds down on its own.
	d.current = nil
	if j := s.dec; j != nil {
		// The evacuation order is the collection order: work-list batches
		// first, then the executing batch, then pending — the journal records
		// it so a lost-KV post-mortem can see who was queued behind whom.
		var gpuResident int
		for _, r := range owned {
			if r.Seq != nil && r.Seq.State() != kvcache.StateCPU {
				gpuResident++
			}
		}
		j.Record(decision.Record{At: s.eng.Now(), Kind: decision.KindEvacuation,
			Instance: d.eng.Name, Outcome: "drain_decode",
			Reason:   "offload KV to host tier; re-dispatch as transfers land",
			Requests: s.requestIDs(owned),
			Inputs: []decision.Term{
				{Name: "owned_requests", Value: float64(len(owned))},
				{Name: "gpu_resident", Value: float64(gpuResident)},
			}})
	}
	pend := map[*Request]bool{}
	s.evacuating[d.eng.Name] = pend
	for _, r := range owned {
		s.evacuateSeq(d, pend, r)
	}
}

// evacuateSeq moves one request's KV toward safety. Host-resident sequences
// re-home immediately; GPU-resident ones swap out first; in-flight transfers
// are chased to completion and re-examined.
func (s *System) evacuateSeq(d *decodeInstance, pend map[*Request]bool, r *Request) {
	if r.terminal() || d.dead {
		// Dead means the revocation already fired mid-chase; the crash path
		// owns recovery now and this instance's KV manager must not be
		// touched.
		return
	}
	seq := r.Seq
	if seq == nil {
		s.dispatchDecode(r) // no KV to save
		return
	}
	switch seq.State() {
	case kvcache.StateCPU:
		// Already host-resident (decode batches swap out between turns):
		// nothing to move, nothing at risk.
		s.dispatchDecode(r)
	case kvcache.StateGPU:
		ev, err := d.eng.KV().SwapOut(seq)
		if err != nil {
			if errors.Is(err, memory.ErrOutOfMemory) {
				// Host tier full; retry while the grace window lasts. If the
				// deadline fires first the sequence is counted lost.
				pend[r] = true
				s.eng.After(10*time.Millisecond, func() {
					if pend[r] {
						delete(pend, r)
						s.evacuateSeq(d, pend, r)
					}
				})
				return
			}
			panic("core: evacuation swap-out failed: " + err.Error())
		}
		pend[r] = true
		ev.OnComplete(func() { s.evacuated(d, pend, r) })
	case kvcache.StateSwappingOut, kvcache.StateSwappingIn:
		pend[r] = true
		if ev := seq.LastTransfer(); !ev.Query() {
			ev.OnComplete(func() { s.evacuated(d, pend, r) })
		} else {
			// Transfer already complete; the state settles on the next turn.
			s.eng.After(0, func() { s.evacuated(d, pend, r) })
		}
	default:
		// Freed or abandoned: nothing to do.
	}
}

// evacuated re-homes one request whose KV transfer completed. If the
// revocation already fired (the entry left pend) the request went through
// the crash path instead.
func (s *System) evacuated(d *decodeInstance, pend map[*Request]bool, r *Request) {
	if !pend[r] {
		return
	}
	delete(pend, r)
	if r.terminal() {
		return
	}
	if r.Seq != nil && r.Seq.State() == kvcache.StateCPU {
		s.cfg.Market.NoteEvacuatedKV(d.eng.Name, r.Seq.Bytes())
		s.dispatchDecode(r)
		return
	}
	// Not safe yet (e.g. an overlapped swap-in put it back on the device);
	// keep chasing.
	s.evacuateSeq(d, pend, r)
}

// revokeInstance is the hard deadline: the device fail-stops. Sequence KV
// still on (or moving through) the device is charged as lost, evacuation
// stragglers rejoin via the crash path, and recovery is immediate — the
// advance notice was the failure detection, so no health-monitor lease delay
// applies.
func (s *System) revokeInstance(name string) {
	mkt := s.cfg.Market
	if !s.AliveNamed(name) {
		// Crashed by another fault inside the grace window; close the record.
		mkt.Revoked(name)
		delete(s.evacuating, name)
		return
	}
	var lost int64
	countLost := func(r *Request) {
		if r.Seq == nil {
			return
		}
		switch r.Seq.State() {
		case kvcache.StateGPU, kvcache.StateSwappingIn, kvcache.StateSwappingOut:
			lost += r.Seq.Bytes()
		}
	}
	for r := range s.evacuating[name] {
		if !r.terminal() {
			countLost(r)
			s.orphans[name] = append(s.orphans[name], r)
		}
		// Clear the entry so stale evacuation callbacks (an in-flight
		// swap-out's OnComplete, an OOM retry timer) see the request gone and
		// no-op: the crash path owns its recovery from here, and a late
		// re-dispatch or a swap-out through the dead engine would double-home
		// it.
		delete(s.evacuating[name], r)
	}
	delete(s.evacuating, name)
	stragglers := s.ownedRequests(name)
	for _, r := range stragglers {
		countLost(r)
	}
	mkt.NoteLostKV(name, lost)
	if j := s.dec; j != nil {
		ids := s.requestIDs(stragglers)
		j.Record(decision.Record{At: s.eng.Now(), Kind: decision.KindEvacuation,
			Instance: name, Outcome: "revoked",
			Reason:   "grace deadline; stragglers recover via crash path",
			Requests: ids,
			Inputs: []decision.Term{
				{Name: "lost_kv_bytes", Value: float64(lost)},
				{Name: "straggler_requests", Value: float64(len(ids))},
			}})
	}
	if err := s.CrashInstance(name); err != nil {
		return
	}
	mkt.Revoked(name)
	s.RecoverOrphansOf(name)
}

// EvacuatingRequests counts requests whose spot-evacuation transfer is still
// pending across all noticed instances. A drained run must report zero: every
// evacuation either landed (the request re-homed) or the deadline fired (the
// request went through the crash path) — a nonzero count is a stuck transfer.
func (s *System) EvacuatingRequests() int {
	n := 0
	for _, pend := range s.evacuating {
		n += len(pend)
	}
	return n
}

// ownedRequests lists the live requests of the named instance (queued,
// batched, or in flight).
func (s *System) ownedRequests(name string) []*Request {
	switch p, d := s.instanceNamed(name); {
	case p != nil:
		return p.owned()
	case d != nil:
		return d.owned()
	}
	return nil
}

// owned lists p's live requests once each: its queued groups in order, then
// the in-flight job.
func (p *prefillInstance) owned() []*Request {
	var w ownerWalk
	for _, g := range p.queue {
		w.add(g.reqs...)
	}
	w.add(p.inflight)
	return w.reqs
}

// owned lists d's live requests once each, in the order crash recovery
// re-dispatches them: the work-list batches, the executing batch, then
// pending. The executing batch is normally a member of the work list, but
// a spot evacuation detaches it (the list is rebuilt while the turn is
// still in flight) and re-homed requests can rejoin it when the noticed
// instance is the last survivor, so it is swept explicitly or they orphan
// nowhere.
func (d *decodeInstance) owned() []*Request {
	var w ownerWalk
	for _, b := range d.workList {
		w.add(b.reqs...)
	}
	if d.current != nil {
		w.add(d.current.reqs...)
	}
	w.add(d.pending...)
	return w.reqs
}

// ownerWalk collects an instance's live requests, each once, in the order
// they are added.
type ownerWalk struct {
	reqs []*Request
	seen map[*Request]bool
}

func (w *ownerWalk) add(rs ...*Request) {
	for _, r := range rs {
		if r == nil || r.terminal() || w.seen[r] {
			continue
		}
		if w.seen == nil {
			w.seen = map[*Request]bool{}
		}
		w.seen[r] = true
		w.reqs = append(w.reqs, r)
	}
}
