// Package slomon is the live SLO monitoring subsystem: per-model and
// fleet-wide sliding-window token attainment over the driver's virtual
// clock, SRE-style error-budget burn-rate alerting across fast/mid/slow
// windows, and root-cause attribution of every missed-deadline token by
// joining it against the obs span and switch-stage data.
//
// The Monitor judges every token on its own, fed one decode step at a time
// from the serving path (core's token stamp sites), and folds the verdict
// core's slo.Judge gave each finished request into its cumulative trackers,
// so windowed and cumulative attainment share one definition and converge
// on steady workloads. All methods are nil-safe: a nil *Monitor records
// nothing, keeping the default serving path free of monitoring overhead.
package slomon

import (
	"sync"
	"time"

	"aegaeon/internal/model"
	"aegaeon/internal/obs"
	"aegaeon/internal/sim"
	"aegaeon/internal/slo"
)

// Config parameterizes the monitor. A zero Objective takes the default.
type Config struct {
	// Objective is the attainment target the error budget is measured
	// against (default 0.99: up to 1% of tokens may miss their deadlines).
	Objective float64

	// Source is the obs collector joined against for miss attribution.
	// Nil disables attribution (misses classify as unknown).
	Source *obs.Collector

	// FaultActive reports whether an injected fault window covering the
	// model or instance is active — checked before the span join, since a
	// fault explains the miss regardless of which span absorbed the time.
	FaultActive func(model, instance string) bool
}

// Windowing and alerting constants.
const (
	// bucket is the sliding-window bucket width.
	bucket = time.Second
	// fastWindow, midWindow and slowWindow are the burn-rate windows;
	// slowWindow bounds ring retention.
	fastWindow = time.Minute
	midWindow  = 5 * time.Minute
	slowWindow = 30 * time.Minute
	// pageBurn and warnBurn are the burn-rate alert thresholds: the SRE
	// workbook's 2%-of-budget-per-hour and 10%-per-day pages for a 30-day
	// budget.
	pageBurn = 14.4
	warnBurn = 3
	// hysteresis scales the thresholds for holding an active alert: a page
	// persists until burn < 0.8 x pageBurn.
	hysteresis = 0.8
	// quantileSamples bounds each TTFT/TBT reservoir epoch.
	quantileSamples = 2048
)

// windows holds the burn-rate window lengths, indexed fastWin..slowWin.
var windows = [numWindows]time.Duration{fastWindow, midWindow, slowWindow}

// TokenObs is one produced token, judged against its deadline. Model is
// the dense id of the request's model, named to the monitor by NameModel.
type TokenObs struct {
	Model    model.ID
	Request  string
	Instance string
	Index    int      // 0-based token index within the request
	Arrival  sim.Time // request arrival
	Deadline sim.Time // arrival + TTFT + Index*TBT
	At       sim.Time // generation time
	Prev     sim.Time // previous token's generation time (0 when Index == 0)
}

// scope is the windowed state of one aggregation level (fleet or model).
type scope struct {
	id     model.ID // the model's id; model.NoID for the fleet
	ring   *windowRing
	ttft   *epochSketch
	tbt    *epochSketch
	causes [numCauses]uint64
	alert  alertMachine
	met    uint64 // stream totals, never evicted
	missed uint64
}

func newScope(samples int) *scope {
	return &scope{
		ring: newWindowRing(bucket, windows),
		ttft: newEpochSketch(midWindow, samples),
		tbt:  newEpochSketch(midWindow, samples),
	}
}

// burns returns the scope's burn rate over each window.
func (s *scope) burns(objective float64) (b [numWindows]float64) {
	for i := range b {
		met, missed := s.ring.sums(i)
		b[i] = burnRate(met, missed, objective)
	}
	return b
}

// Monitor maintains live SLO state. Safe for concurrent use; the zero
// value is not usable — call New.
type Monitor struct {
	cfg     Config
	samples int // reservoir bound of each new scope's sketches; tests shrink it

	mu     sync.Mutex
	names  model.Names
	fleet  *scope
	models []*scope // indexed by model id; nil until the model's first token
	now    sim.Time // latest time observed or advanced to
	nowEnd sim.Time // end of now's bucket

	// Cumulative attainment from core's request verdicts, per model
	// (indexed by model id; nil until the model's first verdict) and for
	// the fleet.
	cum      []*slo.Tracker
	fleetCum *slo.Tracker
}

// New builds a monitor. A zero Objective takes the default.
func New(cfg Config) *Monitor { return newMonitor(cfg, quantileSamples) }

// newMonitor builds a monitor whose reservoirs hold samples each.
func newMonitor(cfg Config, samples int) *Monitor {
	if cfg.Objective <= 0 || cfg.Objective >= 1 {
		cfg.Objective = 0.99
	}
	return &Monitor{
		cfg:      cfg,
		samples:  samples,
		nowEnd:   bucket, // the clock starts in bucket 0
		fleet:    newScope(samples),
		fleetCum: slo.NewTracker(),
	}
}

// Config returns the configuration, its Objective defaulted.
func (m *Monitor) Config() Config {
	if m == nil {
		return Config{}
	}
	return m.cfg
}

// NameModel records the name of model id, which token observations carry
// instead of the name; snapshots and miss attribution resolve it. A system
// names its models as it is built. Nil-safe.
func (m *Monitor) NameModel(id model.ID, name string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.names.Set(id, name)
}

// modelName resolves id for miss attribution, which runs outside m.mu.
func (m *Monitor) modelName(id model.ID) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.names.Name(id)
}

func (m *Monitor) scopeLocked(id model.ID) *scope {
	if int(id) < len(m.models) && m.models[id] != nil {
		return m.models[id]
	}
	m.models = model.Grow(m.models, id)
	s := newScope(m.samples)
	s.id = id
	// Start at the monitor clock, where every started ring's head is, so a
	// first observation judged behind the clock clamps into the same bucket
	// as the fleet's copy.
	if m.fleet.ring.head >= 0 {
		s.ring.advance(m.now)
	}
	m.models[id] = s
	return s
}

// ObserveTokens records produced tokens in order, typically the tokens of
// one decode step, under one lock. The result equals one ObserveToken call
// per token: each token is judged on its own, and the clock advances after
// a token only when its time or model differs from the previous token's,
// since an advance repeating the last one's arguments is a no-op. So alerts
// still step the moment the first token of a new bucket lands. Nil-safe.
func (m *Monitor) ObserveTokens(obs []TokenObs) {
	if m == nil || len(obs) == 0 {
		return
	}
	// Attribute misses before locking: the span join takes the collector's
	// lock and FaultActive is the caller's code. The stack buffer holds a
	// typical step's misses.
	var buf [16]Cause
	causes := buf[:0]
	for _, o := range obs {
		if o.At > o.Deadline {
			causes = append(causes, classify(m.cfg.Source, m.cfg.FaultActive,
				m.modelName(o.Model), o.Request, o.Instance, o.Arrival, o.Deadline, o.At))
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var ms *scope
	for i, o := range obs {
		same := i > 0 && o.Model == obs[i-1].Model
		if !same {
			ms = m.scopeLocked(o.Model)
		}
		met := o.At <= o.Deadline
		var cause Cause
		if !met {
			cause, causes = causes[0], causes[1:]
		}
		for _, s := range [2]*scope{m.fleet, ms} {
			s.ring.observe(o.At, met)
			if met {
				s.met++
			} else {
				s.missed++
				s.causes[cause]++
			}
			if o.Index == 0 {
				s.ttft.add(o.At, o.At-o.Arrival)
			} else if o.Prev > 0 && o.At >= o.Prev {
				s.tbt.add(o.At, o.At-o.Prev)
			}
		}
		if !same || o.At != obs[i-1].At {
			m.advanceLocked(o.At, ms)
		}
	}
}

// ObserveDropped records one token that will never be generated (failed or
// starved request). The miss lands in the bucket of its deadline when that
// has already passed, else in the bucket of the judgement time — a dead
// request's future tokens are known lost now, but a miss cannot be filed
// into a future bucket. Attribution joins the overrun interval (or, for
// future deadlines, the request's lifetime so far). The cumulative trackers
// take the request's dropped tokens from its verdict. Nil-safe.
func (m *Monitor) ObserveDropped(id model.ID, request, instance string, arrival, deadline, judged sim.Time) {
	if m == nil {
		return
	}
	cause := classify(m.cfg.Source, m.cfg.FaultActive,
		m.modelName(id), request, instance, arrival, deadline, judged)
	bucketAt := deadline
	if judged < bucketAt {
		bucketAt = judged
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	ms := m.scopeLocked(id)
	for _, s := range [2]*scope{m.fleet, ms} {
		s.ring.observe(bucketAt, false)
		s.missed++
		s.causes[cause]++
	}
	m.advanceLocked(judged, ms)
}

// ObserveVerdict folds the verdict of one finished request of model id into
// the cumulative per-model and fleet trackers. Nil-safe.
func (m *Monitor) ObserveVerdict(id model.ID, v slo.Verdict) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cum = model.Grow(m.cum, id)
	if m.cum[id] == nil {
		m.cum[id] = slo.NewTracker()
	}
	m.cum[id].Add(v)
	m.fleetCum.Add(v)
}

// advanceLocked moves the clock to now (never backward). Per call it
// advances only the fleet ring and touched, the model scope just observed
// (nil for none): every call leaves every started ring's head in the
// clock's bucket, so the other model rings have nothing to rotate until the
// clock crosses into a new bucket. Then every ring advances and every alert
// machine steps.
func (m *Monitor) advanceLocked(now sim.Time, touched *scope) {
	if now < m.now {
		return
	}
	m.now = now
	rotated := m.fleet.ring.head < 0 || now >= m.nowEnd
	if now >= m.nowEnd {
		_, m.nowEnd = bucketSpan(int64(now/bucket), bucket)
	}
	m.fleet.ring.advance(now)
	if touched != nil {
		touched.ring.advance(now)
	}
	if rotated {
		for _, s := range m.models {
			if s != nil {
				s.ring.advance(now)
			}
		}
		m.stepAlertsLocked(now)
	}
}

func (m *Monitor) stepAlertsLocked(now sim.Time) {
	step := func(s *scope) {
		b := s.burns(m.cfg.Objective)
		s.alert.step(now, b[fastWin], b[midWin], b[slowWin])
	}
	step(m.fleet)
	for _, s := range m.models {
		if s != nil {
			step(s)
		}
	}
}

// FleetAlert returns the fleet alert state (AlertOK on a nil monitor).
func (m *Monitor) FleetAlert() AlertState {
	if m == nil {
		return AlertOK
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.fleet.alert.state
}

// FleetBurnRates returns the fleet burn rates over the fast, mid, and slow
// windows as the live ring holds them now, the current partial bucket
// included. Zero on a nil monitor. Overload control feeds these into the
// brownout controller alongside FleetAlert.
func (m *Monitor) FleetBurnRates() (fast, mid, slow float64) {
	if m == nil {
		return 0, 0, 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	b := m.fleet.burns(m.cfg.Objective)
	return b[fastWin], b[midWin], b[slowWin]
}
