package core

import (
	"time"

	"aegaeon/internal/decision"
	"aegaeon/internal/model"
	"aegaeon/internal/overload"
	"aegaeon/internal/sim"
	"aegaeon/internal/slomon"
	"aegaeon/internal/workload"
)

// Typed overload shed reasons. FailReason is shedPrefix + reason, so the
// gateway and chaos audits can tell load shedding from capacity loss
// (Request.ShedReason).
const (
	ShedAdmitNone   = "admit_none"        // brownout at admit-none: nothing enters
	ShedLowPriority = "low_priority"      // brownout at shed-low: low tier rejected
	ShedColdFreeze  = "cold_model_frozen" // brownout at freeze: model not resident
	ShedDoomed      = "doomed_on_arrival" // predicted first token past its deadline
	ShedReaped      = "doomed_in_queue"   // reaper: queued past any chance of its deadline

	shedPrefix = "overload: "
)

const (
	// reaperPeriod is how often the queue reaper re-walks prefill queues
	// while any are non-empty.
	reaperPeriod = 500 * time.Millisecond
	// doomGrace pads doom judgements so estimator error does not shed
	// requests that would have just made their deadline.
	doomGrace = 200 * time.Millisecond
)

// admitOverload is the overload-control gate in front of dispatchPrefill.
// It steps the brownout controller from the live monitor's burn-rate state,
// applies the controller's level policy (shed tiers, freeze cold models,
// admit none), sheds requests whose first token is already predicted past
// its deadline, shrinks decode lengths, and arms the queue reaper. It is the
// only overload gate: the live gateway answers each request with its verdict.
// Returns false when the request was shed (it is terminal; do not dispatch).
// With no controller configured it admits everything untouched.
func (s *System) admitOverload(r *Request) bool {
	ctl := s.cfg.Overload
	if ctl == nil {
		// No overload control: everything is admitted, but the admission
		// decision itself is still journaled so every chain has its head.
		if j := s.dec; j != nil {
			j.Record(decision.Record{At: s.eng.Now(), Kind: decision.KindAdmission,
				Request: r.ID, Model: r.Model.Name, Outcome: "accept"})
		}
		return true
	}
	if r.terminal() {
		return false
	}
	now := s.eng.Now()
	s.stepOverload(now)
	reject := func(reason string) {
		if j := s.dec; j != nil {
			j.Record(decision.Record{At: now, Kind: decision.KindAdmission,
				Request: r.ID, Model: r.Model.Name, Outcome: "reject", Reason: reason,
				Inputs: []decision.Term{
					{Name: "level", Value: float64(ctl.Level())},
					{Name: "priority", Value: float64(r.Priority)},
				}})
		}
	}
	switch {
	case ctl.AdmitNone():
		reject(ShedAdmitNone)
		s.shed(r, ShedAdmitNone, nil)
		return false
	case ctl.ShedLow() && r.Priority == workload.PriorityLow:
		reject(ShedLowPriority)
		s.shed(r, ShedLowPriority, nil)
		return false
	case ctl.FreezeCold() && !s.modelWarm(r.mid):
		reject(ShedColdFreeze)
		s.shed(r, ShedColdFreeze, nil)
		return false
	}
	est, estOK := s.estimateTTFT(r)
	if estOK && now+est > r.Deadline+doomGrace {
		r.Overshoot = now + est - r.Deadline
		reject(ShedDoomed)
		var ev []decision.Term
		if s.dec != nil {
			ev = []decision.Term{
				decision.NsTerm("ttft_estimate", est),
				decision.NsTerm("projected_first_token", now+est),
				decision.NsTerm("deadline", r.Deadline),
				decision.NsTerm("doom_grace", doomGrace),
			}
		}
		s.shed(r, ShedDoomed, ev)
		return false
	}
	r.OutputTokens = ctl.OutputCap(r.OutputTokens)
	if j := s.dec; j != nil {
		inputs := []decision.Term{
			{Name: "level", Value: float64(ctl.Level())},
			{Name: "priority", Value: float64(r.Priority)},
			decision.NsTerm("deadline", r.Deadline),
		}
		if estOK {
			inputs = append(inputs, decision.NsTerm("ttft_estimate", est))
		}
		j.Record(decision.Record{At: now, Kind: decision.KindAdmission,
			Request: r.ID, Model: r.Model.Name, Outcome: "accept", Inputs: inputs})
	}
	s.armReaper()
	return true
}

// escalateBacklog is the queued-request depth per alive prefill instance
// (in units of MaxGroupSize) beyond which the current degradation level is
// judged insufficient and the controller may climb another rung.
const escalateBacklog = 2

// OverloadSignals is the brownout controller's one signal rule: the
// monitor's fleet alert and fast burn rate, both gated on real queue
// pressure. queued counts requests waiting in alive prefill queues and limit
// is the backlog beyond which the current level is judged insufficient (zero
// with no alive instance). Escalation needs a paging SLO and a backlog over
// the limit; holding the level needs a hot alert and at least some backlog.
// The gates matter because sheds are honestly counted as misses: without
// them, the controller's own shedding keeps the burn rate above the page
// threshold forever, so it ratchets to admit-none and — with the alert now
// pegged by the sheds it is itself causing — never comes back. Queue depth
// is the one signal the control loop cannot poison: an empty queue with a
// hot alert means the misses are echoes of past sheds, not current load.
// deep reports the backlog gate on its own.
func OverloadSignals(mon *slomon.Monitor, queued, limit int) (sig overload.Signals, deep bool) {
	st := mon.FleetAlert()
	fast, _, _ := mon.FleetBurnRates()
	deep = limit > 0 && queued > limit
	return overload.Signals{
		Page:     st == slomon.AlertPage && deep,
		Warn:     st >= slomon.AlertWarn && queued > 0,
		FastBurn: fast,
	}, deep
}

// PrefillBacklog returns the requests waiting in alive prefill queues and
// the backlog limit OverloadSignals gates escalation on.
func (s *System) PrefillBacklog() (queued, limit int) {
	queued, alive := s.queuedPrefillLoad()
	return queued, escalateBacklog * s.cfg.MaxGroupSize * alive
}

// stepOverload advances the brownout controller under OverloadSignals.
func (s *System) stepOverload(now sim.Time) {
	if s.mon == nil {
		// No monitor, no burn-rate signal: the brownout ladder stays put, but
		// deadline-aware admission and the reaper still work off estimates.
		return
	}
	queued, alive := s.queuedPrefillLoad()
	sig, deep := OverloadSignals(s.mon, queued, escalateBacklog*s.cfg.MaxGroupSize*alive)
	ctl := s.cfg.Overload
	before := ctl.Level()
	after := ctl.Step(now, sig)
	if j := s.dec; j != nil && after != before {
		j.Record(decision.Record{At: now, Kind: decision.KindOverload,
			Outcome: after.String(), Reason: before.String() + " -> " + after.String(),
			Inputs: []decision.Term{
				decision.BoolTerm("page", sig.Page),
				decision.BoolTerm("warn", sig.Warn),
				{Name: "fast_burn", Value: sig.FastBurn},
				{Name: "queued", Value: float64(queued)},
				{Name: "alive", Value: float64(alive)},
				decision.BoolTerm("deep_backlog", deep),
			}})
	}
}

// queuedPrefillLoad counts non-terminal requests waiting in alive prefill
// queues, and the alive instances themselves.
func (s *System) queuedPrefillLoad() (queued, alive int) {
	for _, p := range s.prefills {
		if p.dead {
			continue
		}
		alive++
		for _, g := range p.queue {
			for _, q := range g.reqs {
				if !q.terminal() {
					queued++
				}
			}
		}
	}
	return queued, alive
}

// shed rejects r for an overload reason, counting it by type. The request
// goes through failRequest so its KV is reclaimed, live streams observe a
// typed terminal error, and every unproduced token counts as an SLO miss —
// shedding must never launder violations. extra carries site-specific
// evidence (the doomed estimate); callers build it only under a journal
// nil-check so the disabled path stays allocation-free.
func (s *System) shed(r *Request, reason string, extra []decision.Term) {
	s.shedReasons[reason]++
	if j := s.dec; j != nil {
		queued, alive := s.queuedPrefillLoad()
		level := 0.0
		if ctl := s.cfg.Overload; ctl != nil {
			level = float64(ctl.Level())
		}
		inputs := append([]decision.Term{
			{Name: "level", Value: level},
			{Name: "priority", Value: float64(r.Priority)},
			{Name: "queued", Value: float64(queued)},
			{Name: "alive", Value: float64(alive)},
		}, extra...)
		j.Record(decision.Record{At: s.eng.Now(), Kind: decision.KindShed,
			Request: r.ID, Model: r.Model.Name, Outcome: reason, Inputs: inputs})
	}
	s.failRequest(r, shedPrefix+reason)
}

// modelWarm reports whether the model is already resident on (or queued
// toward) some alive instance, so a freeze on cold loads does not shed
// requests that piggyback on work already under way.
func (s *System) modelWarm(id model.ID) bool {
	for _, p := range s.prefills {
		if p.dead {
			continue
		}
		if p.eng.CurrentID() == id {
			return true
		}
		for _, g := range p.queue {
			if g.mid == id {
				return true
			}
		}
	}
	for _, d := range s.decodes {
		if d.dead {
			continue
		}
		if d.eng.CurrentID() == id {
			return true
		}
	}
	return false
}

// estimateTTFT predicts the time until r's first token if admitted now: the
// best over alive prefill instances of the queue work ahead of r's insertion
// point (model switches plus per-request prefill execution, the same model
// as prefillInstance.load) plus r's own switch-in and prefill. Returns
// ok=false when no instance is alive.
func (s *System) estimateTTFT(r *Request) (time.Duration, bool) {
	var best time.Duration
	found := false
	for _, p := range s.prefills {
		if p.dead {
			continue
		}
		est := p.estimateFor(r)
		if !found || est < best {
			best, found = est, true
		}
	}
	return best, found
}

// estimateFor projects r's first-token latency on this instance: if an open
// same-rank group of r's model has room, r runs at that group's tail;
// otherwise it runs after the queued work of its own rank and above, behind
// one more switch. Lower-rank groups are ordered behind r by orderQueue and
// do not delay it — charging a high-tier arrival for low-tier work it will
// jump ahead of would doom-shed exactly the requests the tiers protect.
func (p *prefillInstance) estimateFor(r *Request) time.Duration {
	rank := r.Priority.Rank()
	var total time.Duration
	prev := p.eng.CurrentID()
	for _, g := range p.queue {
		if g.rank < rank {
			continue
		}
		m := g.mid
		if g.mid != prev {
			total += p.eng.CostFor(m).Switch()
			prev = g.mid
		}
		for _, q := range g.reqs {
			if q.terminal() {
				continue
			}
			total += p.eng.PrefillEstimate(m, q.InputTokens)
		}
		if g.mid == r.mid && g.rank == rank && g.size < p.sys.cfg.MaxGroupSize {
			// r would join this group and run right after its tail.
			return total + p.eng.PrefillEstimate(r.mid, r.InputTokens)
		}
	}
	if r.mid != prev {
		total += p.eng.CostFor(r.mid).Switch()
	}
	return total + p.eng.PrefillEstimate(r.mid, r.InputTokens)
}

// armReaper schedules the queue reaper if overload control is on and it is
// not already pending. The reaper re-arms itself only while prefill queues
// are non-empty, so an idle simulation still drains and Run() returns.
func (s *System) armReaper() {
	if s.cfg.Overload == nil || s.reaperArmed {
		return
	}
	s.reaperArmed = true
	s.eng.After(reaperPeriod, s.reapQueues)
}

// reapQueues walks every prefill queue, projecting each queued request's
// first-token time by cumulative switch and prefill cost, and aborts
// mid-queue the requests that can no longer meet their deadline (plus, at
// shed-low or deeper, any queued low-tier requests). Reaped requests release
// their admission state through failRequest: KV reclaimed, live streams
// closed with a typed error, every unproduced token counted as missed.
func (s *System) reapQueues() {
	s.reaperArmed = false
	ctl := s.cfg.Overload
	if ctl == nil {
		return
	}
	now := s.eng.Now()
	s.stepOverload(now)
	shedLow := ctl.ShedLow()
	var doomed, lowTier []*Request
	var doomedCum []time.Duration // parallel to doomed; journal on only
	nonEmpty := false
	for _, p := range s.prefills {
		if p.dead {
			continue
		}
		if len(p.queue) > 0 {
			nonEmpty = true
		}
		// Project in true service order so doom judgements match what step()
		// will actually run, not the raw append order of late arrivals.
		p.orderQueue()
		var cum time.Duration
		prev := p.eng.CurrentID()
		for _, g := range p.queue {
			m := g.mid
			if g.mid != prev {
				cum += p.eng.CostFor(m).Switch()
				prev = g.mid
			}
			for _, q := range g.reqs {
				if q.terminal() {
					continue
				}
				cum += p.eng.PrefillEstimate(m, q.InputTokens)
				switch {
				case now+cum > q.Deadline+doomGrace:
					doomed = append(doomed, q)
					if s.dec != nil {
						doomedCum = append(doomedCum, cum)
					}
				case shedLow && q.Priority == workload.PriorityLow:
					lowTier = append(lowTier, q)
				}
			}
		}
	}
	for i, q := range doomed {
		var ev []decision.Term
		if s.dec != nil && i < len(doomedCum) {
			ev = []decision.Term{
				decision.NsTerm("queued_work_ahead", doomedCum[i]),
				decision.NsTerm("projected_first_token", now+doomedCum[i]),
				decision.NsTerm("deadline", q.Deadline),
				decision.NsTerm("doom_grace", doomGrace),
			}
		}
		s.shed(q, ShedReaped, ev)
		s.removeFromQueues(q)
	}
	for _, q := range lowTier {
		s.shed(q, ShedLowPriority, nil)
		s.removeFromQueues(q)
	}
	if nonEmpty {
		s.reaperArmed = true
		s.eng.After(reaperPeriod, s.reapQueues)
	}
}
