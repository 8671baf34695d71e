package core

import (
	"fmt"

	"aegaeon/internal/kvcache"
)

// Fault tolerance (Fig. 5: the proxy layer's metadata sync exists "to
// ensure load balancing and fault tolerance"). An instance crash loses its
// VRAM contents — resident model weights and GPU KV cache — but not the
// unified CPU KV cache, which lives in host memory. Recovery re-dispatches
// the instance's requests:
//
//   - a sequence resident in (or swapping out to) the CPU tier resumes
//     decoding on a surviving instance;
//   - a sequence whose only copy was in the dead instance's VRAM is
//     recomputed: the request re-enters the prefill phase with its full
//     context (prompt plus already-delivered tokens) and continues decoding
//     where it left off. Already-delivered tokens are never re-emitted.
//
// Crash and recovery are split into two steps so the cluster proxy can model
// a detection delay: CrashInstance fail-stops the named instance and stashes
// its in-flight requests as orphans; the orphans wait — making no progress,
// exactly as they would while a real failure goes undetected — until
// RecoverOrphansOf re-dispatches them (normally when the proxy's health
// monitor notices the expired lease, or after the single-system facade's
// fixed detection delay). Callers that want an instant recovery call the
// two back to back.

// CrashInstance fail-stops the instance with the given engine name (prefill
// or decode) at the current virtual time. Its requests become orphans
// awaiting RecoverOrphansOf.
func (s *System) CrashInstance(name string) error {
	switch p, d := s.instanceNamed(name); {
	case p != nil:
		return s.crashPrefill(p)
	case d != nil:
		return s.crashDecode(d)
	}
	return fmt.Errorf("core: no instance named %q", name)
}

// crashDecode fail-stops decoding instance d.
func (s *System) crashDecode(d *decodeInstance) error {
	if d.dead {
		return fmt.Errorf("core: decode instance %s already failed", d.eng.Name)
	}
	// The steps that ended before the crash keep their tokens; the one in
	// flight dies with the instance, and the run ends with it.
	d.cut()
	d.dead = true
	s.cfg.Faults.CountCrash()
	s.obs.Fault(d.eng.Name, "crash", "decode instance fail-stop", s.eng.Now())
	s.fleet.Fault(d.eng.Name)

	owned := d.owned()
	d.workList = nil
	d.pending = nil
	d.current = nil
	d.resident = nil
	d.running = false
	s.orphans[d.eng.Name] = append(s.orphans[d.eng.Name], owned...)
	return nil
}

// crashPrefill fail-stops prefill instance p. Queued jobs and the in-flight
// prefill (including one waiting out its KV handoff transfer) become
// orphans.
func (s *System) crashPrefill(p *prefillInstance) error {
	if p.dead {
		return fmt.Errorf("core: prefill instance %s already failed", p.eng.Name)
	}
	p.dead = true
	s.cfg.Faults.CountCrash()
	s.obs.Fault(p.eng.Name, "crash", "prefill instance fail-stop", s.eng.Now())
	s.fleet.Fault(p.eng.Name)

	owned := p.owned()
	p.queue = nil
	p.inflight = nil
	p.running = false
	if s.prefix != nil {
		// The instance's VRAM — and with it every prefix device copy — died.
		// Forget the copies without returning blocks to the dead pool; host-
		// tier entries survive, and orphan re-prefill releases any pins held
		// by interrupted attempts when it restarts them.
		s.prefix.DropInstance(p.eng.Name)
	}
	s.orphans[p.eng.Name] = append(s.orphans[p.eng.Name], owned...)
	return nil
}

// RecoverOrphansOf re-dispatches the orphans of one crashed instance,
// returning how many resumed from host-resident KV and how many must
// recompute their context via prefill.
func (s *System) RecoverOrphansOf(name string) (resumed, recomputed int) {
	orphans := s.orphans[name]
	if len(orphans) == 0 {
		return 0, 0
	}
	delete(s.orphans, name)
	for _, r := range orphans {
		if r.terminal() {
			continue
		}
		if s.recoverRequest(r) {
			resumed++
		} else {
			recomputed++
		}
	}
	s.cfg.Faults.CountRecovery(resumed, recomputed)
	s.obs.Recovery(name, fmt.Sprintf("resumed %d, recomputed %d", resumed, recomputed), s.eng.Now())
	return resumed, recomputed
}

// OrphanedOf returns how many of the named instance's requests await
// recovery. The proxy's idempotent failover re-entry keys on it: a claim
// whose acknowledgment was lost re-runs recovery iff orphans remain.
func (s *System) OrphanedOf(name string) int { return len(s.orphans[name]) }

// OrphanedRequests returns how many requests await recovery.
func (s *System) OrphanedRequests() int {
	n := 0
	for _, rs := range s.orphans {
		n += len(rs)
	}
	return n
}

// recoverRequest routes an orphan from a dead instance. Returns true if its
// KV survived in the CPU tier (resume decoding), false if it must be
// recomputed via prefill — including requests that never reached prefill.
func (s *System) recoverRequest(r *Request) bool {
	if r.Seq != nil && r.Seq.SurvivesHostOnly() {
		s.dispatchDecode(r)
		return true
	}
	if r.Seq != nil {
		// Whatever KV the dead instance built is gone; recovery-time
		// bookkeeping only.
		r.Seq.Abandon()
		r.Seq = nil
	}
	s.dispatchPrefill(r)
	return false
}

// AliveNamed reports whether the named instance exists and has not crashed.
func (s *System) AliveNamed(name string) bool {
	p, d := s.instanceNamed(name)
	return (p != nil && !p.dead) || (d != nil && !d.dead)
}

// instanceNamed finds the instance with the given engine name: its prefill
// or decode record, the other nil. Both are nil when no instance has the
// name.
func (s *System) instanceNamed(name string) (*prefillInstance, *decodeInstance) {
	for _, p := range s.prefills {
		if p.eng.Name == name {
			return p, nil
		}
	}
	for _, d := range s.decodes {
		if d.eng.Name == name {
			return nil, d
		}
	}
	return nil, nil
}

// InstanceNames returns every instance engine name, prefill then decode.
func (s *System) InstanceNames() []string {
	names := make([]string, 0, len(s.prefills)+len(s.decodes))
	for _, p := range s.prefills {
		names = append(names, p.eng.Name)
	}
	for _, d := range s.decodes {
		names = append(names, d.eng.Name)
	}
	return names
}

// freeSeq releases a terminal request's KV through whichever state it is in,
// falling back to crash-style abandonment if orderly release fails. Any
// manager can perform the release: block accounting lives in the caches the
// sequence itself references plus the shared CPU pool.
func (s *System) freeSeq(r *Request) {
	if r.Seq == nil {
		return
	}
	if r.Seq.State() != kvcache.StateFreed {
		// Reclaim rather than Free: every path through here is a shed or
		// abort, and the distinct counter lets audits separate overload
		// reclamation from completion frees.
		if err := s.prefills[0].eng.KV().Reclaim(r.Seq); err != nil {
			r.Seq.Abandon()
		}
	}
	r.Seq = nil
}
