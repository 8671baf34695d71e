// Package decision is the provenance journal of the serving stack: every
// policy engine (gateway admission, the overload ladder, deadline shedding,
// auto-scaling switch choice, cache-aware routing, prefix and KV eviction,
// spot placement and evacuation) records *why* it chose what it chose — the
// full candidate set with per-term score decomposition, the evidence inputs,
// the chosen outcome, and causal links to request IDs — so "why was this
// request routed/shed/evicted?" is answerable after the fact.
//
// The Journal is the single sink. Like obs.Collector and fleetobs.Ledger it
// is nil-safe everywhere: a nil *Journal records nothing, and call sites
// nil-check before building candidate slices, so the serving hot paths pay
// one pointer comparison when provenance is off. With the journal on, each
// record is copied once into a slot the journal recycles, and call sites
// build their slices in a Scratch they reuse, so recording is benchmarked
// at zero allocations either way.
//
// Everything retained is bounded: the flat record ring, the per-request
// chain index, and each chain's length have caps, so a long-running
// gateway's memory stays flat. Records are stamped with virtual time and
// built only from simulation state, so byte-identical traces yield
// byte-identical journals (the determinism regression test holds exactly
// this).
package decision

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"aegaeon/internal/chunk"
	"aegaeon/internal/sim"
)

// SchemaVersion versions the exported journal JSON.
const SchemaVersion = 1

// Decision kinds. One constant per policy site family.
const (
	// KindAdmission is the accept/reject gate at arrival (gateway predictive
	// admission and the core overload gates share it).
	KindAdmission = "admission"
	// KindOverload is a brownout-ladder level transition.
	KindOverload = "overload_transition"
	// KindShed is a deadline shed or queue-reaper abort of an admitted
	// request.
	KindShed = "shed"
	// KindPrefillRouting is prefill instance choice (load/capability scoring,
	// or cache-aware load − prefix-credit when the prefix cache routes).
	KindPrefillRouting = "prefill_routing"
	// KindDecodePlacement is decode instance choice.
	KindDecodePlacement = "decode_placement"
	// KindSwitch is a preemptive auto-scaling model switch on an instance.
	KindSwitch = "switch"
	// KindKVEviction is a decode-side KV victim-batch choice (lazy eviction).
	KindKVEviction = "kv_eviction"
	// KindPrefixEviction is a prefix-cache victim choice (host or device
	// tier).
	KindPrefixEviction = "prefix_eviction"
	// KindEvacuation is spot-market lifecycle: preemption notice, KV
	// evacuation ordering, revocation.
	KindEvacuation = "evacuation"
	// KindTerminal closes a request's chain: done, failed, or aborted.
	KindTerminal = "terminal"
)

// Terminal outcomes (KindTerminal records and CheckCoverage states).
const (
	OutcomeDone    = "done"
	OutcomeFailed  = "failed"
	OutcomeAborted = "aborted"
)

// Term is one named component of a score or one evidence input: a queue
// depth, a switch cost in nanoseconds, a prefix credit, a burn rate.
type Term struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// Candidate is one option the decision weighed, with its score decomposed
// into terms. Excluded candidates (market-ineligible devices, frozen models)
// appear with Excluded set so the journal shows what was *not* considered
// and why, not just what won.
type Candidate struct {
	Name     string  `json:"name"`
	Score    float64 `json:"score"`
	Chosen   bool    `json:"chosen,omitempty"`
	Excluded bool    `json:"excluded,omitempty"`
	Terms    []Term  `json:"terms,omitempty"`
}

// Record is one journaled decision. Seq is assigned by the journal;
// everything else is the call site's. At is virtual time. Request is the
// primary causal link (empty for instance- or fleet-scoped decisions);
// Requests carries additional links (switch victims, evacuation order) —
// the record lands in every linked request's chain.
type Record struct {
	Seq        uint64      `json:"seq"`
	At         sim.Time    `json:"at_ns"`
	Kind       string      `json:"kind"`
	Request    string      `json:"request,omitempty"`
	Model      string      `json:"model,omitempty"`
	Instance   string      `json:"instance,omitempty"`
	Outcome    string      `json:"outcome"`
	Reason     string      `json:"reason,omitempty"`
	Inputs     []Term      `json:"inputs,omitempty"`
	Candidates []Candidate `json:"candidates,omitempty"`
	Requests   []string    `json:"requests,omitempty"`
}

// Options has no fields: the journal's retention bounds are constants.
// bench/perf/gateway.go still passes an Options{}, so the type stays until
// that caller drops it.
type Options struct{}

// Retention bounds.
const (
	// maxRecords bounds the flat record ring.
	maxRecords = 16384
	// maxRequests bounds the per-request chain index; when full, the oldest
	// chain is evicted whole.
	maxRequests = 4096
	// maxPerChain bounds one request's chain. When full, the record after
	// the chain head is dropped: the head (admission) and the tail
	// (terminal) survive, so coverage audits stay meaningful.
	maxPerChain = 256
)

// Journal receives decision records from every policy site. All methods are
// safe on a nil receiver (no-ops).
//
// Each record is stored once, in a slot the journal owns: the ring and every
// chain the record is linked to hold the slot, not a copy. A slot goes back
// on the free list once the ring has rotated past it and no chain holds it,
// and the next record to take it reuses its buffers. Chain buffers are
// recycled the same way, so a warmed journal allocates nothing per record.
type Journal struct {
	seq    uint64
	ring   []*slot // grows to maxRecords, then rotates at next
	next   int
	total  uint64
	chains map[string][]*slot
	// order lists the chained requests oldest first, as a ring: once it
	// holds maxRequests, the oldest is at orderHead.
	order     []string
	orderHead int
	counts    map[string]map[string]uint64 // kind -> outcome -> n

	slots chunk.Pool[slot]
	terms chunk.Pool[Term]
	cands chunk.Pool[Candidate]
	ids   chunk.Pool[string]
	links chunk.Pool[*slot] // chain buffers
}

// slot is one stored record. terms backs every candidate's Terms. refs
// counts the ring's hold and each chain link.
type slot struct {
	rec   Record
	terms []Term
	refs  int
}

// New builds a journal. It allocates nothing until the first record.
func New(Options) *Journal {
	return &Journal{}
}

// Record journals one decision: assigns its sequence number, stores a copy
// in a journal-owned slot, pushes the slot into the ring, bumps the
// kind/outcome counter, and appends the slot to the chain of every linked
// request. The journal keeps none of r's slices, so a call site may build
// them in buffers it reuses.
func (j *Journal) Record(r Record) {
	if j == nil {
		return
	}
	j.seq++
	j.total++
	if len(j.ring) == maxRecords {
		j.release(j.ring[j.next])
	}
	s := j.store(r)
	if len(j.ring) < maxRecords {
		j.ring = append(j.ring, s)
	} else {
		j.ring[j.next] = s
		j.next = (j.next + 1) % maxRecords
	}
	if j.counts == nil {
		j.counts = map[string]map[string]uint64{}
		j.chains = map[string][]*slot{}
	}
	m := j.counts[r.Kind]
	if m == nil {
		m = map[string]uint64{}
		j.counts[r.Kind] = m
	}
	m[r.Outcome]++
	if r.Request != "" {
		j.link(r.Request, s)
	}
	for _, id := range r.Requests {
		if id != r.Request {
			j.link(id, s)
		}
	}
}

// store copies r into a free slot, reusing the slot's buffers, and
// returns it held once (by the ring).
func (j *Journal) store(r Record) *slot {
	s := j.slots.New()
	old := s.rec
	s.rec = r
	s.rec.Seq = j.seq
	s.rec.Inputs = append(j.terms.Fit(old.Inputs, len(r.Inputs)), r.Inputs...)
	s.rec.Requests = append(j.ids.Fit(old.Requests, len(r.Requests)), r.Requests...)
	n := 0
	for _, c := range r.Candidates {
		n += len(c.Terms)
	}
	s.terms = j.terms.Fit(s.terms, n)
	s.rec.Candidates = j.cands.Fit(old.Candidates, len(r.Candidates))
	for _, c := range r.Candidates {
		at := len(s.terms)
		s.terms = append(s.terms, c.Terms...)
		c.Terms = s.terms[at:len(s.terms):len(s.terms)]
		s.rec.Candidates = append(s.rec.Candidates, c)
	}
	s.refs = 1
	return s
}

// release drops one hold on s, freeing it with the last.
func (j *Journal) release(s *slot) {
	if s.refs--; s.refs == 0 {
		j.slots.Free(s)
	}
}

// newChainCap is the capacity a new chain starts at: most chains hold a
// handful of records (admission, routing, placement, terminal), so they
// rarely regrow.
const newChainCap = 8

func (j *Journal) link(id string, s *slot) {
	chain, ok := j.chains[id]
	if !ok {
		if len(j.order) < maxRequests {
			j.order = append(j.order, id)
		} else {
			// Evict the oldest chain whole and recycle its buffer.
			old := j.order[j.orderHead]
			for _, held := range j.chains[old] {
				j.release(held)
			}
			j.links.Put(j.chains[old])
			delete(j.chains, old)
			j.order[j.orderHead] = id
			j.orderHead = (j.orderHead + 1) % maxRequests
		}
		chain = j.links.Get(min(newChainCap, maxPerChain))
	}
	if len(chain) >= maxPerChain {
		// Keep the head (admission) and the recent tail.
		j.release(chain[1])
		chain = append(chain[:1], chain[2:]...)
	}
	s.refs++
	j.chains[id] = j.links.Append(chain, s)
}

// copyRecord returns r with its own copies of every slice, so the caller
// holds nothing the journal will reuse.
func copyRecord(r Record) Record {
	r.Inputs, r.Requests, r.Candidates = clone(r.Inputs), clone(r.Requests), clone(r.Candidates)
	for i := range r.Candidates {
		r.Candidates[i].Terms = clone(r.Candidates[i].Terms)
	}
	return r
}

// clone copies s, nil when it is empty.
func clone[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return append([]T(nil), s...)
}

// copyChain deep-copies one chain.
func copyChain(chain []*slot) []Record {
	if chain == nil {
		return nil
	}
	out := make([]Record, len(chain))
	for i, s := range chain {
		out[i] = copyRecord(s.rec)
	}
	return out
}

// Chain returns a copy of one request's decision chain, in record order
// (nil if the request is unknown or evicted).
func (j *Journal) Chain(id string) []Record {
	if j == nil {
		return nil
	}
	return copyChain(j.chains[id])
}

// Recent returns copies of the most recent retained records in sequence
// order, filtered by kind when kind != "" and capped at n when n > 0.
func (j *Journal) Recent(n int, kind string) []Record {
	if j == nil {
		return nil
	}
	var keep []*slot
	for i := range j.ring {
		s := j.ring[(j.next+i)%len(j.ring)]
		if kind == "" || s.rec.Kind == kind {
			keep = append(keep, s)
		}
	}
	if n > 0 && len(keep) > n {
		keep = keep[len(keep)-n:]
	}
	out := make([]Record, len(keep))
	for i, s := range keep {
		out[i] = copyRecord(s.rec)
	}
	return out
}

// Total returns the number of records ever journaled.
func (j *Journal) Total() uint64 {
	if j == nil {
		return 0
	}
	return j.total
}

// TrackedRequests returns the number of requests with a retained chain.
func (j *Journal) TrackedRequests() int {
	if j == nil {
		return 0
	}
	return len(j.order)
}

// KindCount is one (kind, outcome) counter, for metrics exposition.
type KindCount struct {
	Kind    string
	Outcome string
	N       uint64
}

// Counts returns the kind/outcome counters sorted by kind then outcome —
// a deterministic series order for the Prometheus families.
func (j *Journal) Counts() []KindCount {
	if j == nil {
		return nil
	}
	var out []KindCount
	for kind, m := range j.counts {
		for outcome, n := range m {
			out = append(out, KindCount{Kind: kind, Outcome: outcome, N: n})
		}
	}
	sort.Slice(out, func(i, k int) bool {
		if out[i].Kind != out[k].Kind {
			return out[i].Kind < out[k].Kind
		}
		return out[i].Outcome < out[k].Outcome
	})
	return out
}

// Chains snapshots every retained chain, sorted by request ID. The export
// and the why endpoints join against this.
func (j *Journal) Chains() []ChainExport {
	if j == nil {
		return nil
	}
	out := make([]ChainExport, 0, len(j.order))
	for _, id := range j.order {
		out = append(out, ChainExport{Request: id, Records: copyChain(j.chains[id])})
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Request < out[k].Request })
	return out
}

// ChainExport is one request's chain in the exported journal.
type ChainExport struct {
	Request string   `json:"request"`
	Records []Record `json:"records"`
}

// Export is the versioned journal JSON: the flat ring in sequence order plus
// every retained per-request chain (chains survive ring rotation, so a
// request's provenance outlives the flat window).
type Export struct {
	SchemaVersion int           `json:"schema_version"`
	Total         uint64        `json:"total"`
	Records       []Record      `json:"records"`
	Chains        []ChainExport `json:"chains"`
}

// Snapshot builds the export, nil for a nil journal. Everything in it is a
// deterministic function of the journaled records: ring in sequence order,
// chains sorted by ID, no map-ordered fields.
func (j *Journal) Snapshot() *Export {
	if j == nil {
		return nil
	}
	return &Export{
		SchemaVersion: SchemaVersion,
		Total:         j.total,
		Records:       j.Recent(0, ""),
		Chains:        j.Chains(),
	}
}

// WriteJSON writes the export as indented JSON. Byte-identical journals for
// byte-identical traces — the serialization has no map iteration, wall
// clock, or pointer-order dependence.
func (j *Journal) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(j.Snapshot())
}

// Validate checks an exported journal for structural sanity: schema version,
// monotone record sequence, every record carries a kind and an outcome, and
// every chain is non-empty with in-order sequence numbers.
func (e *Export) Validate() error {
	if e == nil {
		return fmt.Errorf("decision: nil export")
	}
	if e.SchemaVersion != SchemaVersion {
		return fmt.Errorf("decision: schema version %d, want %d", e.SchemaVersion, SchemaVersion)
	}
	var last uint64
	for i := range e.Records {
		r := &e.Records[i]
		if r.Kind == "" {
			return fmt.Errorf("decision: record seq %d has no kind", r.Seq)
		}
		if r.Outcome == "" {
			return fmt.Errorf("decision: record seq %d (%s) has no outcome", r.Seq, r.Kind)
		}
		if r.Seq <= last {
			return fmt.Errorf("decision: record seq %d out of order (after %d)", r.Seq, last)
		}
		last = r.Seq
	}
	for _, c := range e.Chains {
		if c.Request == "" {
			return fmt.Errorf("decision: chain with empty request id")
		}
		if len(c.Records) == 0 {
			return fmt.Errorf("decision: empty chain for request %q", c.Request)
		}
		var prev uint64
		for _, r := range c.Records {
			if r.Seq <= prev {
				return fmt.Errorf("decision: chain %q records out of order", c.Request)
			}
			prev = r.Seq
		}
	}
	return nil
}

// RequestState is one terminal request as CheckCoverage's input: its ID and
// how it ended (done, failed, or aborted).
type RequestState struct {
	ID      string
	Outcome string
}

// evidenceKinds are the record kinds that must carry evidence terms: a shed,
// eviction, or preemption with no inputs and no candidates is an
// unexplainable decision — exactly what this journal exists to prevent.
var evidenceKinds = map[string]bool{
	KindShed:           true,
	KindKVEviction:     true,
	KindPrefixEviction: true,
	KindEvacuation:     true,
}

// CheckCoverage audits that no decision went unjournaled: every terminal
// request must have a chain that starts with an admission record and ends
// with a terminal record matching its actual terminal state, and every
// retained shed/eviction/evacuation record must carry evidence terms.
// Returns human-readable violations (empty when covered). A nil journal
// audits nothing.
func (j *Journal) CheckCoverage(reqs []RequestState) []string {
	if j == nil {
		return nil
	}
	var bad []string
	for _, rs := range reqs {
		chain := j.Chain(rs.ID)
		if len(chain) == 0 {
			bad = append(bad, fmt.Sprintf("decision: terminal request %s has no chain", rs.ID))
			continue
		}
		// A chain of exactly one terminal record is a request aborted before
		// its arrival event — there was no admission decision to journal.
		if chain[0].Kind != KindAdmission && !(len(chain) == 1 && chain[0].Kind == KindTerminal) {
			bad = append(bad, fmt.Sprintf("decision: request %s chain starts with %s, want %s",
				rs.ID, chain[0].Kind, KindAdmission))
		}
		tail := chain[len(chain)-1]
		if tail.Kind != KindTerminal {
			bad = append(bad, fmt.Sprintf("decision: request %s chain ends with %s, want %s",
				rs.ID, tail.Kind, KindTerminal))
		} else if tail.Outcome != rs.Outcome {
			bad = append(bad, fmt.Sprintf("decision: request %s terminal record says %s, state says %s",
				rs.ID, tail.Outcome, rs.Outcome))
		}
	}
	for _, rec := range j.Recent(0, "") {
		if evidenceKinds[rec.Kind] && len(rec.Inputs) == 0 && len(rec.Candidates) == 0 {
			bad = append(bad, fmt.Sprintf("decision: %s record seq %d (%s) carries no evidence terms",
				rec.Kind, rec.Seq, rec.Outcome))
		}
	}
	return bad
}

// NsTerm builds a Term holding a duration in nanoseconds — the common
// currency of score decompositions (loads, switch costs, estimates).
func NsTerm(name string, d sim.Time) Term {
	return Term{Name: name, Value: float64(d)}
}

// BoolTerm builds a 0/1 Term from a condition (alert firing, deep backlog).
func BoolTerm(name string, v bool) Term {
	t := Term{Name: name}
	if v {
		t.Value = 1
	}
	return t
}

// Scratch holds the terms and candidates of the record a call site is
// building, in buffers reused from one record to the next. Record keeps
// none of the slices it is given, so a call site that owns a Scratch
// journals without allocating once the buffers have grown. The zero
// Scratch is ready to use; it is not safe for concurrent use.
type Scratch struct {
	terms []Term
	cands []Candidate
}

// Reset empties the buffers for the next record. What earlier calls
// returned is overwritten from here on.
func (s *Scratch) Reset() {
	s.terms, s.cands = s.terms[:0], s.cands[:0]
}

// Terms copies ts into the buffer and returns the copy: one candidate's
// Terms, or a record's Inputs.
func (s *Scratch) Terms(ts ...Term) []Term {
	at := len(s.terms)
	s.terms = append(s.terms, ts...)
	return s.terms[at:len(s.terms):len(s.terms)]
}

// Candidate appends c to the candidates and returns its index.
func (s *Scratch) Candidate(c Candidate) int {
	s.cands = append(s.cands, c)
	return len(s.cands) - 1
}

// Candidates returns the candidates appended since Reset.
func (s *Scratch) Candidates() []Candidate { return s.cands }
