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
// one pointer comparison when provenance is off (benchmarked at zero
// allocations).
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
	"sync"

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
// safe on a nil receiver (no-ops) and safe for concurrent use: the
// simulation goroutine writes while debug handlers snapshot.
type Journal struct {
	mu         sync.Mutex
	seq        uint64
	ring       []Record // allocated at maxRecords by the first Record
	next       int
	total      uint64
	chains     map[string][]Record
	chainOrder []string
	counts     map[string]map[string]uint64 // kind -> outcome -> n
}

// New builds a journal.
func New(Options) *Journal {
	return &Journal{
		chains: map[string][]Record{},
		counts: map[string]map[string]uint64{},
	}
}

// Record journals one decision: assigns its sequence number, pushes it into
// the ring, bumps the kind/outcome counter, and appends it to the chain of
// every linked request.
func (j *Journal) Record(r Record) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	r.Seq = j.seq
	if j.ring == nil {
		j.ring = make([]Record, 0, maxRecords)
	}
	if len(j.ring) < maxRecords {
		j.ring = append(j.ring, r)
	} else {
		j.ring[j.next] = r
		j.next = (j.next + 1) % maxRecords
	}
	j.total++
	m := j.counts[r.Kind]
	if m == nil {
		m = map[string]uint64{}
		j.counts[r.Kind] = m
	}
	m[r.Outcome]++
	if r.Request != "" {
		j.linkLocked(r.Request, r)
	}
	for _, id := range r.Requests {
		if id != r.Request {
			j.linkLocked(id, r)
		}
	}
}

// newChainCap is the capacity a new chain starts at: most chains hold a
// handful of records (admission, routing, placement, terminal), so they
// rarely regrow.
const newChainCap = 8

func (j *Journal) linkLocked(id string, r Record) {
	chain, ok := j.chains[id]
	if !ok {
		for len(j.chainOrder) >= maxRequests {
			delete(j.chains, j.chainOrder[0])
			j.chainOrder = j.chainOrder[1:]
		}
		j.chainOrder = append(j.chainOrder, id)
		chain = make([]Record, 0, min(newChainCap, maxPerChain))
	}
	if len(chain) >= maxPerChain {
		// Keep the head (admission) and the recent tail.
		chain = append(chain[:1], chain[2:]...)
	}
	j.chains[id] = append(chain, r)
}

// Chain returns a copy of one request's decision chain, in record order
// (nil if the request is unknown or evicted).
func (j *Journal) Chain(id string) []Record {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]Record(nil), j.chains[id]...)
}

// Recent returns copies of the most recent retained records in sequence
// order, filtered by kind when kind != "" and capped at n when n > 0.
func (j *Journal) Recent(n int, kind string) []Record {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Record, 0, len(j.ring))
	for i := 0; i < len(j.ring); i++ {
		rec := j.ring[(j.next+i)%len(j.ring)]
		if kind == "" || rec.Kind == kind {
			out = append(out, rec)
		}
	}
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}

// Total returns the number of records ever journaled.
func (j *Journal) Total() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.total
}

// TrackedRequests returns the number of requests with a retained chain.
func (j *Journal) TrackedRequests() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.chainOrder)
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
	j.mu.Lock()
	defer j.mu.Unlock()
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
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]ChainExport, 0, len(j.chainOrder))
	for _, id := range j.chainOrder {
		out = append(out, ChainExport{
			Request: id,
			Records: append([]Record(nil), j.chains[id]...),
		})
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

// Snapshot builds the export. Everything in it is a deterministic function
// of the journaled records: ring in sequence order, chains sorted by ID, no
// map-ordered fields.
func (j *Journal) Snapshot() Export {
	if j == nil {
		return Export{SchemaVersion: SchemaVersion}
	}
	recs := j.Recent(0, "")
	chains := j.Chains()
	j.mu.Lock()
	total := j.total
	j.mu.Unlock()
	return Export{
		SchemaVersion: SchemaVersion,
		Total:         total,
		Records:       recs,
		Chains:        chains,
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
// every chain is non-empty with in-order sequence numbers. It is the gate
// `aegaeon-trace -mode why` applies before printing.
func Validate(e *Export) error {
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
