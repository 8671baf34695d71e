// Replicated is the N-replica quorum store: the same key/value + watch API
// as Store, served by a Raft-style replicated log with lease-based
// leadership. Every message, timer, and election rides the sim engine, so a
// given (seed, fault schedule) pair reproduces bit-for-bit.
//
// Protocol sketch:
//   - Monotonic terms; at most one leader per term (majority vote, with the
//     usual up-to-date log restriction).
//   - Writes append to the leader's log, replicate via AppendEntries, and
//     commit on majority match — only entries of the leader's own term
//     commit directly (predecessors commit implicitly).
//   - Each new leader appends a no-op barrier entry and serves linearizable
//     reads only once that barrier is applied AND its lease is valid. The
//     lease extends to roundStart+leaseSpan when a majority acks a
//     heartbeat round; voters hold votes for electionTimeout after hearing
//     a leader (and after restarting), and leaseSpan < electionTimeout, so
//     a stale leader's lease always expires before a new leader can rise.
//   - GetSession is the weaker read-your-writes read: served by the
//     session's home replica once it has applied past the session's floor
//     (the commit index of the session's last acknowledged op).
//   - Crash keeps term/votedFor/log ("disk") but loses volatile state;
//     rejoining replicas catch up through AppendEntries consistency checks.
package metastore

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"time"

	"aegaeon/internal/sim"
)

// RepConfig parameterizes a Replicated store.
type RepConfig struct {
	Replicas int           // quorum group size (default 3)
	RTT      time.Duration // client<->replica round trip (default 1ms)

	Seed          int64 // election jitter seed (default 1)
	RecordHistory bool  // record every client op for the linearizability audit
}

// Replication timings.
const (
	linkRTT   = 500 * time.Microsecond // replica<->replica round trip
	heartbeat = 100 * time.Millisecond // leader heartbeat interval
	leaseSpan = 240 * time.Millisecond // leader lease per acked round
	// electionTimeout is the minimum election timeout; jitter adds up to
	// the same again.
	electionTimeout = 400 * time.Millisecond
	opTimeout       = time.Second            // client-side op deadline
	retryDelay      = 100 * time.Millisecond // client re-probe interval
)

// Lease reads are safe only while a deposed leader's lease lapses before
// any voter can elect its successor (DESIGN.md §16), so electionTimeout
// must exceed leaseSpan. This constant overflows, failing the build, if it
// does not.
const _ = uint64(electionTimeout - leaseSpan - 1)

func (c *RepConfig) defaults() {
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if c.RTT <= 0 {
		c.RTT = time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// client is the virtual node id of the proxy-side facade.
const client = -1

type repRole uint8

const (
	roleFollower repRole = iota
	roleCandidate
	roleLeader
)

func (r repRole) String() string {
	switch r {
	case roleLeader:
		return "leader"
	case roleCandidate:
		return "candidate"
	}
	return "follower"
}

// opc is the replicated operation class carried in log entries and client
// messages.
type opc uint8

const (
	opNop opc = iota
	opSet
	opDelete
	opCAS
	opGet        // linearizable read (leader, lease + barrier)
	opSessionGet // read-your-writes read (home replica, floor-gated)
)

// entry is one replicated log record.
type entry struct {
	term          uint64
	kind          opc
	key, val, old string
	opID          uint64 // client op id; 0 for the no-op barrier
}

// Commit is one quorum-committed log entry as applied to the key space —
// the audit's ground truth and the source for watch replay.
type Commit struct {
	Index   uint64
	Term    uint64
	OpID    uint64
	Kind    opc
	Key     string
	Value   string // value after application ("" for deletes)
	Applied bool   // the entry changed state (CAS losses and absent-key deletes don't)
	Deleted bool
	Version uint64 // key version after application (0 when !Applied)
	At      sim.Time
}

type opMsg struct {
	id            uint64
	kind          opc
	key, val, old string
	floor         uint64 // session reads: min applied index to serve at
}

type respMsg struct {
	id       uint64
	ok       bool
	retry    bool // not the leader / lease not ready: client should retry
	redirect int  // leader hint on retry (-1 unknown)
	val      string
	found    bool
	swapped  bool
	index    uint64 // leader applied index (session floor + watch resync)
	served   uint64 // session reads: home replica applied index at serve
}

type aeMsg struct {
	term     uint64
	leader   int
	prevIdx  uint64
	prevTerm uint64
	entries  []entry
	commit   uint64
	round    sim.Time // heartbeat round start, echoed for lease accounting
}

type aeResp struct {
	from    int
	term    uint64
	success bool
	match   uint64
	hint    uint64 // on failure: follower log length, to back off nextIndex
	round   sim.Time
}

type rvMsg struct {
	term     uint64
	cand     int
	lastIdx  uint64
	lastTerm uint64
}

type rvResp struct {
	from    int
	term    uint64
	granted bool
}

type pendingOp struct {
	id            uint64
	kind          opc
	key, val, old string
	sess          *Session
	home          int
	floor         uint64
	attempts      int
	sent          bool
	done          bool
	recIdx        int
	timeoutEv     sim.Event
	retryEv       sim.Event
	fin           func(m respMsg, err error)
}

// Session is a client session with read-your-writes consistency: GetSession
// reads are served by the session's home replica once it has applied past
// the session's floor (the index of the session's last acknowledged op).
type Session struct {
	r     *Replicated
	name  string
	home  int
	floor uint64
}

// replica is one member of the quorum group.
type replica struct {
	r    *Replicated
	id   int
	name string
	down bool

	// Durable state (survives crashes).
	term     uint64
	votedFor int
	log      []entry

	// Volatile state (lost on crash, rebuilt from the log).
	role      repRole
	leaderID  int
	lastHeard sim.Time
	holdUntil sim.Time // refuse votes until then (lease protection)
	timeout   sim.Time // current election timeout draw
	commit    uint64
	applied   uint64
	data      map[string]string
	version   map[string]uint64
	outcomes  map[uint64]Commit // opID -> applied outcome (exactly-once dedup)
	inLog     map[uint64]uint64 // opID -> log index, for retry dedup

	// Leader state.
	nextIndex  []uint64
	matchIndex []uint64
	leaseUntil sim.Time
	termStart  uint64 // index of this term's no-op barrier
	rounds     map[sim.Time]int
	pending    map[uint64][]uint64 // log index -> client op ids awaiting apply
	hbGen      int

	waiting    []opMsg // session reads waiting for applied >= floor
	electionEv sim.Event
	crashes    int
}

// Replicated is the quorum store facade. It implements API.
type Replicated struct {
	eng  *sim.Engine
	cfg  RepConfig
	rng  *rand.Rand
	reps []*replica

	started bool
	stopped bool

	// Quorum-committed ground truth: the agreed apply sequence and the key
	// space it produces. recordGlobal appends each index exactly once (the
	// first replica to apply it) and flags any divergence.
	commits []Commit
	data    map[string]string
	version map[string]uint64

	// Client facade.
	watchesL   []*watch
	delivered  uint64 // commits replayed to watches, in order
	leaderHint int
	nextOp     uint64
	pend       map[uint64]*pendingOp
	sessions   map[string]*Session
	def        *Session

	gets, sets, deletes, failed uint64
	leaderChanges               int

	hist       *History
	divergence []string

	// Link faults. Node indices 0..n-1 are replicas; index n is the client.
	isolUntil  []sim.Time
	slowUntil  []sim.Time
	slowFactor []float64
	cuts       map[[2]int]sim.Time // directed replica->replica drops
}

// NewReplicated builds an N-replica quorum store named ms0..msN-1 and arms
// its election timers. The protocol's heartbeats keep the event queue
// non-empty until Stop is called — callers must pair NewReplicated with Stop
// (the cluster ties Stop to StopHealth) or sim.Engine.Run will never drain.
func NewReplicated(eng *sim.Engine, cfg RepConfig) *Replicated {
	cfg.defaults()
	n := cfg.Replicas
	r := &Replicated{
		eng:        eng,
		cfg:        cfg,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		data:       map[string]string{},
		version:    map[string]uint64{},
		leaderHint: -1,
		pend:       map[uint64]*pendingOp{},
		sessions:   map[string]*Session{},
		hist:       &History{on: cfg.RecordHistory},
		isolUntil:  make([]sim.Time, n+1),
		slowUntil:  make([]sim.Time, n+1),
		slowFactor: make([]float64, n+1),
		cuts:       map[[2]int]sim.Time{},
	}
	for i := 0; i < n; i++ {
		rp := &replica{
			r:        r,
			id:       i,
			name:     fmt.Sprintf("ms%d", i),
			votedFor: -1,
			leaderID: -1,
			data:     map[string]string{},
			version:  map[string]uint64{},
			outcomes: map[uint64]Commit{},
			inLog:    map[uint64]uint64{},
			pending:  map[uint64][]uint64{},
		}
		r.reps = append(r.reps, rp)
	}
	r.def = r.Session("proxy")
	for _, rp := range r.reps {
		rp.armElection()
	}
	r.started = true
	return r
}

// Stop halts the protocol: timers die, in-flight client ops are abandoned
// (their callbacks never fire), and any committed-but-undelivered watch
// notifications flush so mirrors converge before the event queue drains.
func (r *Replicated) Stop() {
	if r.stopped {
		return
	}
	r.stopped = true
	for _, rp := range r.reps {
		rp.electionEv.Cancel()
		rp.hbGen++
	}
	for _, po := range r.pend {
		po.timeoutEv.Cancel()
		po.retryEv.Cancel()
	}
	r.pend = map[uint64]*pendingOp{}
	r.deliverWatches(uint64(len(r.commits)))
}

func (r *Replicated) quorum() int { return len(r.reps)/2 + 1 }

func (r *Replicated) drawTimeout() sim.Time {
	et := int64(electionTimeout)
	return sim.Time(et + r.rng.Int63n(et))
}

func (r *Replicated) byName(name string) *replica {
	for _, rp := range r.reps {
		if rp.name == name {
			return rp
		}
	}
	return nil
}

// ReplicaNames returns the replica names, for fault-schedule generation.
func (r *Replicated) ReplicaNames() []string {
	out := make([]string, len(r.reps))
	for i, rp := range r.reps {
		out[i] = rp.name
	}
	return out
}

// ---- virtual network ----

func (r *Replicated) ni(x int) int {
	if x == client {
		return len(r.reps)
	}
	return x
}

func (r *Replicated) up(from, to int) bool {
	now := r.eng.Now()
	if now < r.isolUntil[r.ni(from)] || now < r.isolUntil[r.ni(to)] {
		return false
	}
	if from != client && to != client {
		if until, ok := r.cuts[[2]int{from, to}]; ok && now < until {
			return false
		}
	}
	return true
}

func (r *Replicated) linkDelay(from, to int) time.Duration {
	base := linkRTT / 2
	if from == client || to == client {
		base = r.cfg.RTT / 2
	}
	now := r.eng.Now()
	f := 1.0
	for _, x := range []int{r.ni(from), r.ni(to)} {
		if now < r.slowUntil[x] && r.slowFactor[x] > f {
			f = r.slowFactor[x]
		}
	}
	if f > 1 {
		return time.Duration(float64(base) * f)
	}
	return base
}

// send delivers f after the one-way link delay; reachability is sampled at
// send time. Returns whether the message left at all. Per-link delay can
// vary across a netdelay window, so messages MAY reorder — the protocol's
// term and index checks are what make that safe (unlike the single store,
// which needs FIFO completions).
func (r *Replicated) send(from, to int, f func()) bool {
	if r.stopped || !r.up(from, to) {
		return false
	}
	r.eng.After(r.linkDelay(from, to), func() {
		if !r.stopped {
			f()
		}
	})
	return true
}

// ---- fault surface ----

// Partition blacks out the client's links for d: the legacy single-store
// fault. Replica-to-replica links stay up, so the quorum keeps running and
// only client ops fail.
func (r *Replicated) Partition(d time.Duration) {
	r.isolate(client, d)
}

// SlowBy multiplies client-link latency by factor for d (legacy fault).
func (r *Replicated) SlowBy(factor float64, d time.Duration) {
	r.slowNode(client, factor, d)
}

func (r *Replicated) isolate(node int, d time.Duration) {
	if d <= 0 {
		return
	}
	if until := r.eng.Now() + d; until > r.isolUntil[r.ni(node)] {
		r.isolUntil[r.ni(node)] = until
	}
}

func (r *Replicated) slowNode(node int, factor float64, d time.Duration) {
	if factor <= 1 || d <= 0 {
		return
	}
	i := r.ni(node)
	if until := r.eng.Now() + d; until > r.slowUntil[i] {
		r.slowUntil[i] = until
	}
	r.slowFactor[i] = factor
}

// PartitionReplica isolates one replica from peers and clients for d.
func (r *Replicated) PartitionReplica(target string, d sim.Time) error {
	rp := r.byName(target)
	if rp == nil {
		return fmt.Errorf("metastore: no replica %q", target)
	}
	r.isolate(rp.id, d)
	return nil
}

// Netsplit drops messages from replicas in from to replicas in to (one
// direction) for d.
func (r *Replicated) Netsplit(from, to []string, d sim.Time) error {
	if d <= 0 {
		return nil
	}
	until := r.eng.Now() + d
	for _, a := range from {
		ra := r.byName(a)
		if ra == nil {
			return fmt.Errorf("metastore: no replica %q", a)
		}
		for _, b := range to {
			rb := r.byName(b)
			if rb == nil {
				return fmt.Errorf("metastore: no replica %q", b)
			}
			k := [2]int{ra.id, rb.id}
			if until > r.cuts[k] {
				r.cuts[k] = until
			}
		}
	}
	return nil
}

// SlowLinks multiplies latency on every link touching target ("" or "*" =
// all nodes) by factor for d.
func (r *Replicated) SlowLinks(target string, factor float64, d sim.Time) error {
	if target == "" || target == "*" {
		for _, rp := range r.reps {
			r.slowNode(rp.id, factor, d)
		}
		r.slowNode(client, factor, d)
		return nil
	}
	rp := r.byName(target)
	if rp == nil {
		return fmt.Errorf("metastore: no replica %q", target)
	}
	r.slowNode(rp.id, factor, d)
	return nil
}

// CrashReplica fail-stops target. Durable state (term, vote, log) survives;
// volatile state is rebuilt from the log after restartAfter (0 = never).
func (r *Replicated) CrashReplica(target string, restartAfter sim.Time) error {
	rp := r.byName(target)
	if rp == nil {
		return fmt.Errorf("metastore: no replica %q", target)
	}
	if rp.down {
		return fmt.Errorf("metastore: replica %s already down", target)
	}
	rp.down = true
	rp.crashes++
	rp.electionEv.Cancel()
	rp.hbGen++
	rp.role = roleFollower
	rp.leaderID = -1
	rp.leaseUntil = 0
	rp.commit, rp.applied = 0, 0
	rp.data = map[string]string{}
	rp.version = map[string]uint64{}
	rp.outcomes = map[uint64]Commit{}
	rp.pending = map[uint64][]uint64{}
	rp.rounds = nil
	rp.waiting = nil
	if restartAfter > 0 {
		r.eng.After(restartAfter, func() { r.restartReplica(rp) })
	}
	return nil
}

func (r *Replicated) restartReplica(rp *replica) {
	if r.stopped || !rp.down {
		return
	}
	rp.down = false
	// Hold votes for a full election timeout: this replica may have acked a
	// lease round just before crashing, and granting instantly could elect
	// a new leader while that lease is still valid.
	rp.holdUntil = r.eng.Now() + electionTimeout
	rp.armElection()
}

// ---- elections & leadership ----

func (rp *replica) armElection() {
	r := rp.r
	rp.timeout = r.drawTimeout()
	rp.lastHeard = r.eng.Now()
	rp.electionEv = r.eng.After(rp.timeout, rp.electionTick)
}

func (rp *replica) electionTick() {
	r := rp.r
	if r.stopped || rp.down || rp.role == roleLeader {
		return
	}
	now := r.eng.Now()
	if dl := rp.lastHeard + rp.timeout; now < dl {
		rp.electionEv = r.eng.At(dl, rp.electionTick)
		return
	}
	rp.startElection()
	rp.timeout = r.drawTimeout()
	rp.lastHeard = now
	rp.electionEv = r.eng.After(rp.timeout, rp.electionTick)
}

func (rp *replica) lastLog() (idx, term uint64) {
	idx = uint64(len(rp.log))
	if idx > 0 {
		term = rp.log[idx-1].term
	}
	return
}

func (rp *replica) startElection() {
	r := rp.r
	rp.role = roleCandidate
	rp.term++
	rp.votedFor = rp.id
	rp.leaderID = -1
	if len(r.reps) == 1 {
		rp.becomeLeader()
		return
	}
	lastIdx, lastTerm := rp.lastLog()
	m := rvMsg{term: rp.term, cand: rp.id, lastIdx: lastIdx, lastTerm: lastTerm}
	rp.votesFor(m)
}

func (rp *replica) votesFor(m rvMsg) {
	r := rp.r
	votes := map[int]bool{rp.id: true}
	for _, peer := range r.reps {
		if peer.id == rp.id {
			continue
		}
		p := peer
		r.send(rp.id, p.id, func() {
			p.onRequestVote(m, func(resp rvResp) {
				r.send(p.id, rp.id, func() { rp.onVoteResp(m.term, resp, votes) })
			})
		})
	}
}

func (rp *replica) onRequestVote(m rvMsg, reply func(rvResp)) {
	r := rp.r
	if rp.down {
		return
	}
	now := r.eng.Now()
	if m.term < rp.term {
		reply(rvResp{from: rp.id, term: rp.term, granted: false})
		return
	}
	if now < rp.holdUntil {
		// Within the vote-hold window after hearing a leader (or after a
		// restart): refuse without adopting the candidate's term, so an
		// active lease can never be undercut by a premature election.
		reply(rvResp{from: rp.id, term: rp.term, granted: false})
		return
	}
	rp.observeTerm(m.term)
	myIdx, myTerm := rp.lastLog()
	upToDate := m.lastTerm > myTerm || (m.lastTerm == myTerm && m.lastIdx >= myIdx)
	granted := false
	if (rp.votedFor == -1 || rp.votedFor == m.cand) && upToDate {
		rp.votedFor = m.cand
		rp.lastHeard = now
		granted = true
	}
	reply(rvResp{from: rp.id, term: rp.term, granted: granted})
}

func (rp *replica) onVoteResp(electionTerm uint64, m rvResp, votes map[int]bool) {
	r := rp.r
	if rp.down {
		return
	}
	if m.term > rp.term {
		rp.observeTerm(m.term)
		return
	}
	if rp.role != roleCandidate || rp.term != electionTerm || !m.granted {
		return
	}
	votes[m.from] = true
	if len(votes) >= r.quorum() {
		rp.becomeLeader()
	}
}

func (rp *replica) becomeLeader() {
	r := rp.r
	rp.role = roleLeader
	rp.leaderID = rp.id
	r.leaderChanges++
	r.hist.election(rp.term, rp.name, r.eng.Now())
	n := len(r.reps)
	rp.nextIndex = make([]uint64, n)
	rp.matchIndex = make([]uint64, n)
	for i := range rp.nextIndex {
		rp.nextIndex[i] = uint64(len(rp.log)) + 1
	}
	rp.rounds = map[sim.Time]int{}
	rp.leaseUntil = 0
	// No-op barrier: commits every surviving predecessor entry and gates
	// this term's linearizable reads on a fully caught-up state machine.
	rp.log = append(rp.log, entry{term: rp.term, kind: opNop})
	rp.termStart = uint64(len(rp.log))
	rp.hbGen++
	gen := rp.hbGen
	var tick func()
	tick = func() {
		if r.stopped || rp.down || rp.role != roleLeader || rp.hbGen != gen {
			return
		}
		rp.broadcastAppend()
		r.eng.After(heartbeat, tick)
	}
	tick()
	if n == 1 {
		rp.advanceCommit()
	}
}

func (rp *replica) observeTerm(t uint64) {
	if t <= rp.term {
		return
	}
	rp.term = t
	rp.votedFor = -1
	rp.stepDown()
}

func (rp *replica) stepDown() {
	wasLeader := rp.role == roleLeader
	rp.role = roleFollower
	rp.leaderID = -1
	rp.hbGen++
	rp.leaseUntil = 0
	// Abandoned proposals: their clients retry or time out; the exactly-once
	// dedup (inLog/outcomes) makes the retries safe.
	rp.pending = map[uint64][]uint64{}
	if wasLeader {
		rp.armElection()
	}
}

func (rp *replica) canServeReads() bool {
	r := rp.r
	if rp.applied < rp.termStart {
		return false
	}
	if len(r.reps) == 1 {
		return true
	}
	return r.eng.Now() < rp.leaseUntil
}

// ---- replication ----

func (rp *replica) broadcastAppend() {
	r := rp.r
	now := r.eng.Now()
	if _, ok := rp.rounds[now]; !ok {
		rp.rounds[now] = 0
	}
	for k := range rp.rounds {
		if k < now-4*sim.Time(leaseSpan) {
			delete(rp.rounds, k)
		}
	}
	for _, peer := range r.reps {
		if peer.id != rp.id {
			rp.sendAppend(peer.id, now)
		}
	}
}

func (rp *replica) sendAppend(peer int, round sim.Time) {
	r := rp.r
	ni := rp.nextIndex[peer]
	if ni < 1 {
		ni = 1
	}
	prevIdx := ni - 1
	var prevTerm uint64
	if prevIdx > 0 {
		prevTerm = rp.log[prevIdx-1].term
	}
	end := uint64(len(rp.log))
	if end > prevIdx+64 {
		end = prevIdx + 64
	}
	entries := append([]entry(nil), rp.log[prevIdx:end]...)
	m := aeMsg{term: rp.term, leader: rp.id, prevIdx: prevIdx, prevTerm: prevTerm,
		entries: entries, commit: rp.commit, round: round}
	p := r.reps[peer]
	r.send(rp.id, peer, func() {
		p.onAppend(m, func(resp aeResp) {
			r.send(p.id, rp.id, func() { rp.onAppendResp(resp) })
		})
	})
}

func (rp *replica) onAppend(m aeMsg, reply func(aeResp)) {
	r := rp.r
	if rp.down {
		return
	}
	if m.term < rp.term {
		reply(aeResp{from: rp.id, term: rp.term, success: false, round: m.round})
		return
	}
	rp.observeTerm(m.term)
	if rp.role == roleCandidate {
		rp.role = roleFollower
	}
	rp.leaderID = m.leader
	rp.lastHeard = r.eng.Now()
	rp.holdUntil = r.eng.Now() + electionTimeout
	if m.prevIdx > uint64(len(rp.log)) ||
		(m.prevIdx > 0 && rp.log[m.prevIdx-1].term != m.prevTerm) {
		hint := uint64(len(rp.log))
		if hint > m.prevIdx {
			hint = m.prevIdx
		}
		reply(aeResp{from: rp.id, term: rp.term, success: false, hint: hint, round: m.round})
		return
	}
	for i, e := range m.entries {
		idx := m.prevIdx + uint64(i) + 1
		if idx <= uint64(len(rp.log)) {
			if rp.log[idx-1].term == e.term {
				continue
			}
			if idx <= rp.applied {
				r.divergence = append(r.divergence, fmt.Sprintf(
					"control-plane: %s asked to truncate applied entry %d (term %d -> %d)",
					rp.name, idx, rp.log[idx-1].term, e.term))
				reply(aeResp{from: rp.id, term: rp.term, success: false, hint: idx - 1, round: m.round})
				return
			}
			rp.truncateLog(idx - 1)
		}
		rp.log = append(rp.log, e)
		if e.opID != 0 {
			rp.inLog[e.opID] = idx
		}
	}
	match := m.prevIdx + uint64(len(m.entries))
	if c := m.commit; c > rp.commit {
		if c > match {
			c = match
		}
		rp.applyTo(c)
	}
	reply(aeResp{from: rp.id, term: rp.term, success: true, match: match, round: m.round})
}

func (rp *replica) truncateLog(n uint64) {
	for i := n; i < uint64(len(rp.log)); i++ {
		if id := rp.log[i].opID; id != 0 {
			delete(rp.inLog, id)
		}
	}
	rp.log = rp.log[:n]
}

func (rp *replica) onAppendResp(m aeResp) {
	r := rp.r
	if rp.down {
		return
	}
	if m.term > rp.term {
		rp.observeTerm(m.term)
		return
	}
	if rp.role != roleLeader || m.term < rp.term {
		return
	}
	if !m.success {
		ni := rp.nextIndex[m.from]
		if ni > 1 {
			ni--
		}
		if m.hint+1 < ni {
			ni = m.hint + 1
		}
		if ni < 1 {
			ni = 1
		}
		rp.nextIndex[m.from] = ni
		rp.sendAppend(m.from, r.eng.Now())
		return
	}
	if m.match > rp.matchIndex[m.from] {
		rp.matchIndex[m.from] = m.match
	}
	if next := rp.matchIndex[m.from] + 1; next > rp.nextIndex[m.from] {
		rp.nextIndex[m.from] = next
	}
	if n, ok := rp.rounds[m.round]; ok {
		n++
		if n+1 >= r.quorum() {
			if until := m.round + sim.Time(leaseSpan); until > rp.leaseUntil {
				rp.leaseUntil = until
			}
			delete(rp.rounds, m.round)
		} else {
			rp.rounds[m.round] = n
		}
	}
	rp.advanceCommit()
	if rp.nextIndex[m.from] <= uint64(len(rp.log)) {
		rp.sendAppend(m.from, r.eng.Now())
	}
}

func (rp *replica) advanceCommit() {
	r := rp.r
	for idx := uint64(len(rp.log)); idx > rp.commit; idx-- {
		if rp.log[idx-1].term != rp.term {
			break // only own-term entries commit by counting (§5.4.2)
		}
		cnt := 1
		for _, peer := range r.reps {
			if peer.id != rp.id && rp.matchIndex[peer.id] >= idx {
				cnt++
			}
		}
		if cnt >= r.quorum() {
			rp.applyTo(idx)
			break
		}
	}
}

// applyTo advances the applied cursor to commit, mutating the replica's
// state machine, recording the global commit sequence, answering pending
// clients (leader), and waking floor-gated session reads.
func (rp *replica) applyTo(commit uint64) {
	r := rp.r
	if commit > uint64(len(rp.log)) {
		commit = uint64(len(rp.log))
	}
	if commit > rp.commit {
		rp.commit = commit
	}
	appliedAny := false
	for rp.applied < rp.commit {
		idx := rp.applied + 1
		e := rp.log[idx-1]
		c := rp.applyEntry(idx, e)
		rp.applied = idx
		appliedAny = true
		if e.opID != 0 {
			rp.outcomes[e.opID] = c
		}
		r.recordGlobal(idx, e, c)
		if rp.role == roleLeader {
			if ids := rp.pending[idx]; len(ids) > 0 {
				delete(rp.pending, idx)
				for _, id := range ids {
					rp.replyOutcome(id, c)
				}
			}
		}
	}
	if appliedAny {
		rp.drainWaiting()
		if rp.role == roleLeader {
			upTo := rp.applied
			r.send(rp.id, client, func() { r.deliverWatches(upTo) })
		}
	}
}

func (rp *replica) applyEntry(idx uint64, e entry) Commit {
	c := Commit{Index: idx, Term: e.term, OpID: e.opID, Kind: e.kind, Key: e.key, At: rp.r.eng.Now()}
	switch e.kind {
	case opSet:
		rp.data[e.key] = e.val
		rp.version[e.key]++
		c.Value, c.Applied, c.Version = e.val, true, rp.version[e.key]
	case opDelete:
		if _, ok := rp.data[e.key]; ok {
			delete(rp.data, e.key)
			rp.version[e.key]++
			c.Applied, c.Deleted, c.Version = true, true, rp.version[e.key]
		}
	case opCAS:
		if rp.data[e.key] == e.old {
			rp.data[e.key] = e.val
			rp.version[e.key]++
			c.Value, c.Applied, c.Version = e.val, true, rp.version[e.key]
		}
	}
	return c
}

func (rp *replica) replyOutcome(id uint64, c Commit) {
	r := rp.r
	m := respMsg{id: id, ok: true, swapped: c.Applied && c.Kind == opCAS,
		val: c.Value, found: c.Applied, index: rp.applied}
	r.send(rp.id, client, func() { r.onResp(m) })
}

func (rp *replica) drainWaiting() {
	if len(rp.waiting) == 0 {
		return
	}
	var still []opMsg
	for _, m := range rp.waiting {
		if rp.applied >= m.floor {
			rp.serveLocal(m)
		} else {
			still = append(still, m)
		}
	}
	rp.waiting = still
}

func (rp *replica) serveLocal(m opMsg) {
	r := rp.r
	v, ok := rp.data[m.key]
	resp := respMsg{id: m.id, ok: true, val: v, found: ok, served: rp.applied, index: rp.applied}
	r.send(rp.id, client, func() { r.onResp(resp) })
}

// recordGlobal appends index idx to the agreed commit sequence exactly once
// and cross-checks every later replay of it — any mismatch is a quorum
// divergence the audit must surface.
func (r *Replicated) recordGlobal(idx uint64, e entry, c Commit) {
	if idx <= uint64(len(r.commits)) {
		prev := r.commits[idx-1]
		if prev.Term != e.term || prev.OpID != e.opID {
			r.divergence = append(r.divergence, fmt.Sprintf(
				"control-plane: commit divergence at index %d: (term %d, op %d) vs (term %d, op %d)",
				idx, prev.Term, prev.OpID, e.term, e.opID))
		}
		return
	}
	if idx != uint64(len(r.commits))+1 {
		r.divergence = append(r.divergence, fmt.Sprintf(
			"control-plane: apply gap: index %d committed with only %d recorded", idx, len(r.commits)))
		return
	}
	r.commits = append(r.commits, c)
	if c.Applied {
		if c.Deleted {
			delete(r.data, c.Key)
		} else {
			r.data[c.Key] = c.Value
		}
		r.version[c.Key] = c.Version
	}
}

// ---- client operations ----

func (rp *replica) onClientOp(m opMsg) {
	r := rp.r
	if rp.down {
		return
	}
	if m.kind == opSessionGet {
		if rp.applied >= m.floor {
			rp.serveLocal(m)
		} else {
			rp.waiting = append(rp.waiting, m)
		}
		return
	}
	if rp.role != roleLeader {
		resp := respMsg{id: m.id, retry: true, redirect: rp.leaderID}
		r.send(rp.id, client, func() { r.onResp(resp) })
		return
	}
	if m.kind == opGet {
		if !rp.canServeReads() {
			resp := respMsg{id: m.id, retry: true, redirect: rp.id}
			r.send(rp.id, client, func() { r.onResp(resp) })
			return
		}
		v, ok := rp.data[m.key]
		resp := respMsg{id: m.id, ok: true, val: v, found: ok, index: rp.applied}
		r.send(rp.id, client, func() { r.onResp(resp) })
		return
	}
	// Mutation. Exactly-once: a retry of an op we already applied answers
	// from the recorded outcome; one already in the log (possibly inherited
	// from a deposed leader) just re-attaches the responder.
	if c, ok := rp.outcomes[m.id]; ok {
		rp.replyOutcome(m.id, c)
		return
	}
	if idx, ok := rp.inLog[m.id]; ok {
		rp.pending[idx] = append(rp.pending[idx], m.id)
		return
	}
	rp.log = append(rp.log, entry{term: rp.term, kind: m.kind, key: m.key, val: m.val, old: m.old, opID: m.id})
	idx := uint64(len(rp.log))
	rp.inLog[m.id] = idx
	rp.pending[idx] = append(rp.pending[idx], m.id)
	now := r.eng.Now()
	if _, ok := rp.rounds[now]; !ok {
		rp.rounds[now] = 0
	}
	for _, peer := range r.reps {
		if peer.id != rp.id {
			rp.sendAppend(peer.id, now)
		}
	}
	if len(r.reps) == 1 {
		rp.advanceCommit()
	}
}

func (r *Replicated) submit(kind opc, key, val, old string, sess *Session, fin func(m respMsg, err error)) {
	r.nextOp++
	po := &pendingOp{id: r.nextOp, kind: kind, key: key, val: val, old: old, sess: sess, fin: fin, recIdx: -1}
	if kind == opSessionGet {
		po.home = sess.home
		po.floor = sess.floor
	}
	if r.stopped {
		r.failed++
		fin(respMsg{}, ErrUnavailable)
		return
	}
	r.pend[po.id] = po
	po.recIdx = r.hist.invoke(po.id, sess.name, kind, key, val, old, po.floor, r.eng.Now())
	po.timeoutEv = r.eng.After(opTimeout, func() { r.failOp(po) })
	r.attempt(po, -1)
}

// attempt sends (or resends) a pending op. prefer < 0 picks the target: the
// leader hint on the first try, then round-robin — a hint pointing at a
// crashed or cut-off replica answers nothing, so retries must probe past it
// or the client wedges until its deadline. Session reads start at the
// session's home replica and walk outward the same way: the floor gate, not
// the home identity, is what carries read-your-writes.
func (r *Replicated) attempt(po *pendingOp, prefer int) {
	if po.done || r.stopped {
		return
	}
	target := prefer
	if po.kind == opSessionGet {
		target = (po.home + po.attempts) % len(r.reps)
	} else if target < 0 || target >= len(r.reps) {
		if po.attempts == 0 && r.leaderHint >= 0 && r.leaderHint < len(r.reps) {
			target = r.leaderHint
		} else {
			target = po.attempts % len(r.reps)
		}
	}
	po.attempts++
	m := opMsg{id: po.id, kind: po.kind, key: po.key, val: po.val, old: po.old, floor: po.floor}
	rp := r.reps[target]
	if r.send(client, target, func() { rp.onClientOp(m) }) {
		po.sent = true
	}
	po.retryEv.Cancel()
	po.retryEv = r.eng.After(retryDelay, func() { r.attempt(po, -1) })
}

func (r *Replicated) failOp(po *pendingOp) {
	if po.done {
		return
	}
	po.done = true
	po.retryEv.Cancel()
	delete(r.pend, po.id)
	r.failed++
	r.hist.respond(po.recIdx, respMsg{}, false, po.sent, r.eng.Now())
	po.fin(respMsg{}, ErrUnavailable)
}

func (r *Replicated) onResp(m respMsg) {
	po := r.pend[m.id]
	if po == nil || po.done {
		return
	}
	if m.retry {
		if m.redirect >= 0 && m.redirect < len(r.reps) {
			r.leaderHint = m.redirect
			if po.attempts < 64 {
				r.attempt(po, m.redirect)
			}
		}
		return
	}
	po.done = true
	po.timeoutEv.Cancel()
	po.retryEv.Cancel()
	delete(r.pend, po.id)
	if po.sess != nil {
		floor := m.index
		if po.kind == opSessionGet {
			floor = m.served
		}
		if floor > po.sess.floor {
			po.sess.floor = floor
		}
	}
	r.hist.respond(po.recIdx, m, true, po.sent, r.eng.Now())
	r.deliverWatches(m.index)
	po.fin(m, nil)
}

// deliverWatches replays committed state changes to the facade's watches in
// commit order, up to the highest index the client has heard of. Watches on
// the quorum store therefore never see the stale interleavings the single
// store's satellite fix addresses: replay order IS version order.
func (r *Replicated) deliverWatches(upTo uint64) {
	if upTo > uint64(len(r.commits)) {
		upTo = uint64(len(r.commits))
	}
	for r.delivered < upTo {
		c := r.commits[r.delivered]
		r.delivered++
		if !c.Applied {
			continue
		}
		r.hist.watched(c.Index, r.eng.Now())
		val := c.Value
		if c.Deleted {
			val = ""
		}
		for _, w := range r.watchesL {
			if !w.closed && strings.HasPrefix(c.Key, w.prefix) {
				w.fn(c.Key, val)
			}
		}
	}
}

// ---- sessions & API ----

// Session returns the named read-your-writes session, creating it on first
// use. The session's home replica (a stable hash of the name) serves its
// GetSession reads once caught up to the session's floor.
func (r *Replicated) Session(name string) *Session {
	if s := r.sessions[name]; s != nil {
		return s
	}
	h := fnv.New32a()
	h.Write([]byte(name))
	s := &Session{r: r, name: name, home: int(h.Sum32()) % len(r.reps)}
	if s.home < 0 {
		s.home += len(r.reps)
	}
	r.sessions[name] = s
	return s
}

// SetE writes key=value through the leader's replicated log.
func (s *Session) SetE(key, value string, done func(err error)) {
	s.r.sets++
	s.r.submit(opSet, key, value, "", s, func(_ respMsg, err error) {
		if done != nil {
			done(err)
		}
	})
}

// GetE is a linearizable read through the leader's lease.
func (s *Session) GetE(key string, fn func(value string, ok bool, err error)) {
	s.r.gets++
	s.r.submit(opGet, key, "", "", s, func(m respMsg, err error) {
		if fn != nil {
			fn(m.val, m.found, err)
		}
	})
}

// GetSession is the session-consistent read served by the home replica.
func (s *Session) GetSession(key string, fn func(value string, ok bool, err error)) {
	s.r.gets++
	s.r.submit(opSessionGet, key, "", "", s, func(m respMsg, err error) {
		if fn != nil {
			fn(m.val, m.found, err)
		}
	})
}

// CompareAndSwap has Store.CompareAndSwap semantics, decided at apply time
// in the replicated log (absent keys compare as "").
func (s *Session) CompareAndSwap(key, old, new string, done func(swapped bool, err error)) {
	s.r.sets++
	s.r.submit(opCAS, key, new, old, s, func(m respMsg, err error) {
		if done != nil {
			done(m.swapped, err)
		}
	})
}

// DeleteE removes key through the replicated log.
func (s *Session) DeleteE(key string, done func(err error)) {
	s.r.deletes++
	s.r.submit(opDelete, key, "", "", s, func(_ respMsg, err error) {
		if done != nil {
			done(err)
		}
	})
}

// The API methods below ride the default "proxy" session.

func (r *Replicated) Set(key, value string, done ...func()) {
	r.def.SetE(key, value, func(error) {
		for _, d := range done {
			d()
		}
	})
}

func (r *Replicated) SetE(key, value string, done func(err error)) {
	r.def.SetE(key, value, done)
}

func (r *Replicated) Get(key string, fn func(value string, ok bool)) {
	r.def.GetE(key, func(v string, ok bool, err error) {
		if err != nil {
			fn("", false)
			return
		}
		fn(v, ok)
	})
}

func (r *Replicated) GetE(key string, fn func(value string, ok bool, err error)) {
	r.def.GetE(key, fn)
}

func (r *Replicated) GetSession(key string, fn func(value string, ok bool, err error)) {
	r.def.GetSession(key, fn)
}

func (r *Replicated) CompareAndSwap(key, old, new string, done func(swapped bool, err error)) {
	r.def.CompareAndSwap(key, old, new, done)
}

func (r *Replicated) Delete(key string, done ...func()) {
	r.def.DeleteE(key, func(error) {
		for _, d := range done {
			d()
		}
	})
}

// Watch has Store.Watch semantics against the committed sequence: replay is
// in commit (= version) order, and a cancel from inside a callback takes
// effect for the very next delivery.
func (r *Replicated) Watch(prefix string, fn func(key, value string)) (cancel func()) {
	w := &watch{prefix: prefix, fn: fn}
	r.watchesL = append(r.watchesL, w)
	return func() {
		if w.closed {
			return
		}
		w.closed = true
		kept := make([]*watch, 0, len(r.watchesL)-1)
		for _, x := range r.watchesL {
			if !x.closed {
				kept = append(kept, x)
			}
		}
		r.watchesL = kept
	}
}

// Watches returns the number of registered (non-cancelled) watches.
func (r *Replicated) Watches() int { return len(r.watchesL) }

// GetNow reads the quorum-committed state synchronously (diagnostics).
func (r *Replicated) GetNow(key string) (string, bool) {
	v, ok := r.data[key]
	return v, ok
}

// Keys returns the sorted committed keys under prefix (diagnostics).
func (r *Replicated) Keys(prefix string) []string {
	var out []string
	for k := range r.data {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Version returns the committed write counter for a key (0 if never set).
func (r *Replicated) Version(key string) uint64 { return r.version[key] }

// Ops returns cumulative (gets, sets, deletes) counted at submission.
func (r *Replicated) Ops() (gets, sets, deletes uint64) { return r.gets, r.sets, r.deletes }

// FailedOps returns how many client ops exhausted their deadline.
func (r *Replicated) FailedOps() uint64 { return r.failed }

// Available reports whether the client's store links are up right now.
func (r *Replicated) Available() bool {
	return r.eng.Now() >= r.isolUntil[r.ni(client)]
}

// Leader returns the name of the highest-term live leader ("" if none).
func (r *Replicated) Leader() string {
	name, best := "", uint64(0)
	for _, rp := range r.reps {
		if rp.role == roleLeader && !rp.down && rp.term >= best {
			name, best = rp.name, rp.term
		}
	}
	return name
}

// LeaderChanges returns how many elections have been won.
func (r *Replicated) LeaderChanges() int { return r.leaderChanges }

// Term returns the highest term any replica has entered.
func (r *Replicated) Term() uint64 {
	var t uint64
	for _, rp := range r.reps {
		if rp.term > t {
			t = rp.term
		}
	}
	return t
}

// Commits returns the agreed commit sequence (the audit's ground truth).
func (r *Replicated) Commits() []Commit { return r.commits }

// History returns the recorded client-op history (empty unless
// RecordHistory was set).
func (r *Replicated) History() *History { return r.hist }

// ReplicaView is one replica's protocol state for diagnostics.
type ReplicaView struct {
	Name    string `json:"name"`
	Role    string `json:"role"`
	Term    uint64 `json:"term"`
	Commit  uint64 `json:"commit_index"`
	Applied uint64 `json:"applied_index"`
	LogLen  int    `json:"log_len"`
	Up      bool   `json:"up"`
	Crashes int    `json:"crashes"`
}

// ControlView is the /debug/metastore snapshot.
type ControlView struct {
	SchemaVersion int           `json:"schema_version"`
	Mode          string        `json:"mode"` // "single" | "replicated"
	Replicas      []ReplicaView `json:"replicas,omitempty"`
	Term          uint64        `json:"term"`
	Leader        string        `json:"leader,omitempty"`
	LeaderChanges int           `json:"leader_changes"`
	CommitIndex   uint64        `json:"commit_index"`
	Gets          uint64        `json:"gets"`
	Sets          uint64        `json:"sets"`
	Deletes       uint64        `json:"deletes"`
	FailedOps     uint64        `json:"failed_ops"`
	Watches       int           `json:"watches"`
	Available     bool          `json:"available"`
}

// View snapshots the quorum group for the debug endpoint and metrics.
func (r *Replicated) View() ControlView {
	v := ControlView{
		SchemaVersion: 1,
		Mode:          "replicated",
		Term:          r.Term(),
		Leader:        r.Leader(),
		LeaderChanges: r.leaderChanges,
		CommitIndex:   uint64(len(r.commits)),
		Gets:          r.gets,
		Sets:          r.sets,
		Deletes:       r.deletes,
		FailedOps:     r.failed,
		Watches:       len(r.watchesL),
		Available:     r.Available(),
	}
	for _, rp := range r.reps {
		v.Replicas = append(v.Replicas, ReplicaView{
			Name: rp.name, Role: rp.role.String(), Term: rp.term,
			Commit: rp.commit, Applied: rp.applied, LogLen: len(rp.log),
			Up: !rp.down, Crashes: rp.crashes,
		})
	}
	return v
}
