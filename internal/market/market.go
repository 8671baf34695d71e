package market

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"aegaeon/internal/fleetobs"
	"aegaeon/internal/sim"
)

// Config configures the marketplace model.
type Config struct {
	// Classes are cycled across devices in registration order, so a
	// "H800,A10" pool alternates datacenter and low-end devices. Empty
	// means homogeneous H800.
	Classes []*Class
	// Spot activates spot pricing: per-device price traces run on the sim
	// clock and feed the fleet ledger's cost integral. Off = flat
	// on-demand rates (the reliable arm).
	Spot bool
	// Aware activates preemption-aware placement and KV evacuation. Off =
	// spot-naive: reclaims revoke with no advance reaction (the baseline
	// arm).
	Aware bool
	// Seed drives the price walk; the same seed reproduces bit-for-bit.
	Seed int64
}

const (
	// minHeadroomFrac disqualifies a device while its free-VRAM fraction
	// in the KV pool is below this floor.
	minHeadroomFrac = 0.02
	// errorEvict disqualifies a device after this many recorded errors.
	errorEvict = 3
	// riskWeight scales the preemption-risk placement penalty into
	// queue-depth units.
	riskWeight = 8
	// tickPeriod is the price walk's period.
	tickPeriod = 10 * time.Second
)

func (c *Config) applyDefaults() {
	if len(c.Classes) == 0 {
		c.Classes, _ = ParseClasses("H800")
	}
}

// device is the per-device market state.
type device struct {
	name  string
	class *Class
	rate  float64 // current $/GPU-hour

	underNotice bool
	noticeAt    sim.Time
	deadline    sim.Time
	revoked     bool
	rec         int // index into m.recs of this device's preemption record, -1 before notice

	throttle      float64 // compute slowdown factor; 1 = nominal
	throttleUntil sim.Time

	errors       int
	lowHeadroom  bool
	disqualified bool
}

// Market is the live marketplace state for one fleet. Construct with New,
// register devices as the pool is built; nil is a valid no-op receiver
// throughout.
type Market struct {
	eng     *sim.Engine
	cfg     Config
	fleet   *fleetobs.Ledger
	rng     *rand.Rand
	devices map[string]*device
	order   []string
	recs    []PreemptionRecord
	stats   Stats
	started bool
}

// New builds a market over the simulation clock. fleet may be nil (prices
// still walk, they just feed no cost integral).
func New(eng *sim.Engine, fleet *fleetobs.Ledger, cfg Config) *Market {
	cfg.applyDefaults()
	return &Market{
		eng:     eng,
		cfg:     cfg,
		fleet:   fleet,
		rng:     rand.New(rand.NewSource(cfg.Seed ^ 0x6d6b74)), // "mkt"
		devices: map[string]*device{},
	}
}

// Enabled reports whether the market is live (non-nil).
func (m *Market) Enabled() bool { return m != nil }

// Aware reports whether preemption-aware placement and evacuation are on.
func (m *Market) Aware() bool { return m != nil && m.cfg.Aware }

// Register assigns the next class in the cycle to the named device and
// returns it. Devices register in pool-build order, so the class layout is
// deterministic. Registering an already-known device returns its class.
func (m *Market) Register(name string) *Class {
	if m == nil {
		return nil
	}
	if d, ok := m.devices[name]; ok {
		return d.class
	}
	cls := m.cfg.Classes[len(m.order)%len(m.cfg.Classes)]
	rate := cls.OnDemandRate
	if m.cfg.Spot {
		rate = cls.SpotBase
	}
	m.devices[name] = &device{name: name, class: cls, rate: rate, throttle: 1, rec: -1}
	m.order = append(m.order, name)
	return cls
}

// Start pushes the initial per-class rates into the fleet ledger and, under
// spot pricing, runs the price trace until the given horizon (the trace must
// be bounded or the event loop would never drain). Idempotent.
func (m *Market) Start(until sim.Time) {
	if m == nil {
		return
	}
	if m.started {
		return
	}
	m.started = true
	for _, n := range m.order {
		m.fleet.SetRate(n, m.devices[n].rate)
	}
	if m.cfg.Spot && until > tickPeriod {
		m.scheduleTick(m.eng.Now()+tickPeriod, until)
	}
}

func (m *Market) scheduleTick(at, until sim.Time) {
	if at > until {
		return
	}
	m.eng.At(at, func() {
		m.tick()
		m.scheduleTick(at+tickPeriod, until)
	})
}

// tick advances every device's price walk one step and feeds the new rate
// into the fleet ledger (piecewise, thanks to the edge-integrated SetRate).
func (m *Market) tick() {
	for _, n := range m.order {
		d := m.devices[n]
		base := d.class.SpotBase
		d.rate += m.rng.NormFloat64() * d.class.Volatility * base
		d.rate = math.Max(0.25*base, math.Min(4*base, d.rate))
		m.fleet.SetRate(d.name, d.rate)
	}
	m.stats.PriceTicks++
}

// Notice records a spot preemption notice for the device: revocation is due
// at now+grace. Placement immediately stops targeting the device (aware
// mode). Errors on unknown, already-noticed, or already-revoked devices.
func (m *Market) Notice(name string, grace sim.Time) error {
	if m == nil {
		return fmt.Errorf("market: no market model configured")
	}
	d := m.devices[name]
	if d == nil {
		return fmt.Errorf("market: unknown device %q", name)
	}
	if d.revoked {
		return fmt.Errorf("market: device %q already revoked", name)
	}
	if d.underNotice {
		return fmt.Errorf("market: device %q already under notice", name)
	}
	now := m.eng.Now()
	d.underNotice = true
	d.noticeAt = now
	d.deadline = now + grace
	d.rec = len(m.recs)
	m.recs = append(m.recs, PreemptionRecord{
		Device:     name,
		Class:      d.class.Name,
		NoticeAtS:  time.Duration(now).Seconds(),
		GraceS:     time.Duration(grace).Seconds(),
		RevokedAtS: -1,
	})
	m.stats.Preemptions++
	return nil
}

// Revoked marks the device's reclaim deadline as having fired: the device is
// gone. The preemption record closes with whatever evacuation managed.
func (m *Market) Revoked(name string) {
	if m == nil {
		return
	}
	d := m.devices[name]
	if d == nil || d.revoked {
		return
	}
	d.revoked = true
	d.underNotice = false
	m.stats.Revocations++
	if d.rec >= 0 {
		r := &m.recs[d.rec]
		r.RevokedAtS = time.Duration(m.eng.Now()).Seconds()
	}
}

// noteBytes adds evacuation accounting to the device's open (or just-closed)
// preemption record and the global stats.
func (m *Market) noteBytes(name string, evac, lost, rehomed int64) {
	if m == nil || (evac <= 0 && lost <= 0 && rehomed <= 0) {
		return
	}
	m.stats.EvacuatedKVBytes += evac
	m.stats.LostKVBytes += lost
	m.stats.RehomedPrefixBytes += rehomed
	d := m.devices[name]
	if d == nil || d.rec < 0 {
		return
	}
	r := &m.recs[d.rec]
	r.EvacuatedKVBytes += evac
	r.LostKVBytes += lost
	r.RehomedPrefixBytes += rehomed
}

// NoteEvacuatedKV credits KV bytes drained off the device ahead of its
// deadline (swap-out to the host tier: the sequences survive).
func (m *Market) NoteEvacuatedKV(name string, bytes int64) { m.noteBytes(name, bytes, 0, 0) }

// NoteLostKV charges KV bytes still GPU-resident at revocation (their
// sequences recover by re-prefill, the §6 crash path).
func (m *Market) NoteLostKV(name string, bytes int64) {
	if m == nil {
		return
	}
	m.noteBytes(name, 0, bytes, 0)
	if bytes > 0 {
		m.stats.DeadlinesMissed++
	}
}

// NoteRehomedPrefix credits prefix-cache device-copy bytes whose chains
// survive in the host tier after the device copies are dropped.
func (m *Market) NoteRehomedPrefix(name string, bytes int64) { m.noteBytes(name, 0, 0, bytes) }

// Throttle applies a thermal-throttle factor (>1 = slower) until the given
// instant; placement discounts the device while throttled.
func (m *Market) Throttle(name string, factor float64, until sim.Time) error {
	if m == nil {
		return fmt.Errorf("market: no market model configured")
	}
	if factor < 1 {
		factor = 1
	}
	d := m.devices[name]
	if d == nil {
		return fmt.Errorf("market: unknown device %q", name)
	}
	d.throttle = factor
	d.throttleUntil = until
	m.stats.Throttles++
	return nil
}

// ClearThrottle restores nominal speed (the window elapsed).
func (m *Market) ClearThrottle(name string) {
	if m == nil {
		return
	}
	if d := m.devices[name]; d != nil {
		d.throttle = 1
	}
}

// NoteHeadroom samples the device's free-VRAM fraction in its KV pool; below
// the configured minimum, placement skips the device until pressure clears.
func (m *Market) NoteHeadroom(name string, freeFrac float64) {
	if m == nil {
		return
	}
	if d := m.devices[name]; d != nil {
		d.lowHeadroom = freeFrac < minHeadroomFrac
	}
}

// Eligible reports whether placement may target the device at all: not
// revoked, not under an open notice, not disqualified, not VRAM-starved.
// (Spot-naive mode ignores notices — see PlacementPenalty.)
func (m *Market) Eligible(name string) bool {
	if m == nil {
		return true
	}
	d := m.devices[name]
	if d == nil {
		return true
	}
	return !d.revoked && !d.underNotice && !d.disqualified && !d.lowHeadroom
}

// CapabilityScore is the device's relative capability: class compute versus
// the strongest configured class, discounted by any live throttle. Used for
// reporting and the placement tiebreak.
func (m *Market) CapabilityScore(name string) float64 {
	if m == nil {
		return 1
	}
	d := m.devices[name]
	if d == nil {
		return 1
	}
	best := 0.0
	for _, c := range m.cfg.Classes {
		if c.Prof.PeakFLOPS > best {
			best = c.Prof.PeakFLOPS
		}
	}
	score := 1.0
	if best > 0 {
		score = d.class.Prof.PeakFLOPS / best
	}
	if d.throttle > 1 {
		score /= d.throttle
	}
	return score
}

// PlacementPenalty prices the preemption risk of placing work whose switch
// cost is switchCost onto the device, in queue-depth units comparable to the
// dispatch load scores. ok=false excludes the device outright (under notice,
// disqualified, or VRAM-starved — aware mode only; spot-naive placement sees
// no risk and no exclusions, which is exactly what the bench measures).
//
// The risk model: the probability the device is reclaimed while the switch
// investment amortizes is 1 - exp(-switchCost/MTBF) (exponential lifetime);
// scaled by riskWeight and topped with the throttle slowdown, weaker and
// riskier devices lose ties unless the load imbalance pays for the risk.
func (m *Market) PlacementPenalty(name string, switchCost sim.Time) (float64, bool) {
	if m == nil || !m.cfg.Aware {
		return 0, true
	}
	d := m.devices[name]
	if d == nil {
		return 0, true
	}
	if d.underNotice || d.revoked || d.disqualified || d.lowHeadroom {
		return 0, false
	}
	penalty := 0.0
	if m.cfg.Spot && d.class.ReclaimMTBF > 0 {
		risk := 1 - math.Exp(-switchCost.Seconds()/d.class.ReclaimMTBF.Seconds())
		penalty += riskWeight * risk
	}
	if d.throttle > 1 {
		penalty += d.throttle - 1
	}
	return penalty, true
}
