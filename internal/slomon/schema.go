package slomon

import (
	"fmt"
	"math"
	"sort"

	"aegaeon/internal/metrics"
	"aegaeon/internal/sim"
	"aegaeon/internal/slo"
)

// SchemaVersion identifies the /debug/slo snapshot JSON layout; consumers
// (CI validation, dashboards) should reject versions they don't know.
const SchemaVersion = 1

// Snapshot is one consistent view of the monitor, serialized on /debug/slo.
type Snapshot struct {
	SchemaVersion int          `json:"schema_version"`
	NowSeconds    float64      `json:"now_s"`
	Objective     float64      `json:"objective"`
	Windows       []WindowSpec `json:"windows"`

	Fleet  ScopeSnapshot   `json:"fleet"`
	Models []ScopeSnapshot `json:"models"`
}

// WindowSpec names one burn-rate window.
type WindowSpec struct {
	Name    string  `json:"name"` // "fast", "mid", "slow"
	Seconds float64 `json:"seconds"`
}

// ScopeSnapshot is the state of one aggregation level.
type ScopeSnapshot struct {
	Model string `json:"model,omitempty"` // empty for the fleet scope

	// Stream totals since start (never evicted from the rings' history).
	TokensMet    uint64 `json:"tokens_met"`
	TokensMissed uint64 `json:"tokens_missed"`

	Windowed []WindowStats `json:"windowed"`

	TTFT QuantileStats `json:"ttft"`
	TBT  QuantileStats `json:"tbt"`

	Alert AlertSnapshot `json:"alert"`

	// ErrorBudgetRemaining is the unspent fraction of the slow window's
	// error budget, clamped to [0, 1].
	ErrorBudgetRemaining float64 `json:"error_budget_remaining"`

	// Causes counts every missed token by its attributed root cause;
	// values sum to TokensMissed.
	Causes map[string]uint64 `json:"causes"`

	// Cumulative folds the verdicts of the scope's finished requests, as
	// the offline slo.Tracker does (absent for scopes that saw only windowed
	// drops before any request finished).
	Cumulative *CumulativeStats `json:"cumulative,omitempty"`
}

// WindowStats is windowed attainment over one burn-rate window.
type WindowStats struct {
	Window     string  `json:"window"`
	Seconds    float64 `json:"seconds"`
	Met        uint64  `json:"met"`
	Missed     uint64  `json:"missed"`
	Attainment float64 `json:"attainment"`
	GoodputTPS float64 `json:"goodput_tps"`
	BurnRate   float64 `json:"burn_rate"`
}

// QuantileStats summarizes a windowed latency sketch, in seconds.
type QuantileStats struct {
	Count uint64  `json:"count"` // retained samples backing the quantiles
	MeanS float64 `json:"mean_s"`
	P50S  float64 `json:"p50_s"`
	P90S  float64 `json:"p90_s"`
	P99S  float64 `json:"p99_s"`
}

// AlertSnapshot is the burn-rate alert state of one scope.
type AlertSnapshot struct {
	State       string               `json:"state"` // ok | warn | page
	SinceS      float64              `json:"since_s"`
	Transitions []TransitionSnapshot `json:"transitions,omitempty"`
}

// TransitionSnapshot is one recorded alert state change.
type TransitionSnapshot struct {
	AtS  float64 `json:"at_s"`
	From string  `json:"from"`
	To   string  `json:"to"`
	Fast float64 `json:"burn_fast"`
	Mid  float64 `json:"burn_mid"`
	Slow float64 `json:"burn_slow"`
}

// CumulativeStats mirrors slo.Tracker's cumulative accounting.
type CumulativeStats struct {
	Requests          uint64  `json:"requests"`
	TokensMet         uint64  `json:"tokens_met"`
	TokensMissed      uint64  `json:"tokens_missed"`
	Attainment        float64 `json:"attainment"`
	RequestAttainment float64 `json:"request_attainment"`
	TTFTAttainment    float64 `json:"ttft_attainment"`
	MeanTTFTS         float64 `json:"mean_ttft_s"`
	P99TTFTS          float64 `json:"p99_ttft_s"`
}

// Snapshot renders a consistent view at the given virtual time, advancing
// the windows first so idle time is reflected. Nil-safe (returns nil).
func (m *Monitor) Snapshot(now sim.Time) *Snapshot {
	if m == nil {
		return nil
	}
	m.advance(now, nil)
	if now < m.now {
		now = m.now
	}
	out := &Snapshot{
		SchemaVersion: SchemaVersion,
		NowSeconds:    now.Seconds(),
		Objective:     m.cfg.Objective,
	}
	for i, d := range windows {
		out.Windows = append(out.Windows, WindowSpec{Name: windowNames[i], Seconds: d.Seconds()})
	}
	out.Fleet = m.scopeSnapshot("", m.fleet, m.fleetCum, now)
	var scopes []*scope
	for _, s := range m.models {
		if s != nil {
			scopes = append(scopes, s)
		}
	}
	sort.Slice(scopes, func(i, j int) bool { return m.names.Name(scopes[i].id) < m.names.Name(scopes[j].id) })
	for _, s := range scopes {
		var cum *slo.Tracker
		if int(s.id) < len(m.cum) {
			cum = m.cum[s.id]
		}
		out.Models = append(out.Models, m.scopeSnapshot(m.names.Name(s.id), s, cum, now))
	}
	return out
}

func (m *Monitor) scopeSnapshot(model string, s *scope, cum *slo.Tracker, now sim.Time) ScopeSnapshot {
	out := ScopeSnapshot{
		Model:        model,
		TokensMet:    s.met,
		TokensMissed: s.missed,
		Causes:       map[string]uint64{},
		Alert: AlertSnapshot{
			State:  s.alert.state.String(),
			SinceS: s.alert.since.Seconds(),
		},
	}
	for c, n := range s.causes {
		if n > 0 {
			out.Causes[Cause(c).String()] = n
		}
	}
	for _, tr := range s.alert.transitions {
		out.Alert.Transitions = append(out.Alert.Transitions, TransitionSnapshot{
			AtS: tr.At.Seconds(), From: tr.From.String(), To: tr.To.String(),
			Fast: tr.Fast, Mid: tr.Mid, Slow: tr.Slow,
		})
	}
	for i, d := range windows {
		met, missed := s.ring.sums(i)
		out.Windowed = append(out.Windowed, WindowStats{
			Window:     windowNames[i],
			Seconds:    d.Seconds(),
			Met:        met,
			Missed:     missed,
			Attainment: slo.Counts{Met: met, Missed: missed}.Attainment(),
			GoodputTPS: float64(met) / d.Seconds(),
			BurnRate:   burnRate(met, missed, m.cfg.Objective),
		})
	}
	slowBurn := out.Windowed[len(out.Windowed)-1].BurnRate
	out.ErrorBudgetRemaining = clamp01(1 - slowBurn)
	out.TTFT = quantileStats(s.ttft.merged())
	out.TBT = quantileStats(s.tbt.merged())
	if cum != nil && cum.Requests() > 0 {
		met, missed := cum.Tokens()
		out.Cumulative = &CumulativeStats{
			Requests:          cum.Requests(),
			TokensMet:         met,
			TokensMissed:      missed,
			Attainment:        cum.Attainment(),
			RequestAttainment: cum.RequestAttainment(),
			TTFTAttainment:    cum.TTFTAttainment(),
			MeanTTFTS:         cum.MeanTTFT().Seconds(),
			P99TTFTS:          cum.TTFTQuantile(0.99).Seconds(),
		}
	}
	return out
}

func quantileStats(c *metrics.CDF) QuantileStats {
	if c.N() == 0 {
		return QuantileStats{}
	}
	return QuantileStats{
		Count: uint64(c.N()),
		MeanS: c.Mean(),
		P50S:  c.Quantile(0.5),
		P90S:  c.Quantile(0.9),
		P99S:  c.Quantile(0.99),
	}
}

func clamp01(v float64) float64 {
	if v < 0 || math.IsNaN(v) {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Validate checks a snapshot against the schema's structural invariants:
// version match, fractions in [0, 1], known alert states, window stats
// consistent, and — the attribution contract — cause counters summing to
// the missed-token total in every scope. CI's slo-smoke job runs this on
// a live /debug/slo capture.
func Validate(s *Snapshot) error {
	if s == nil {
		return fmt.Errorf("slomon: nil snapshot")
	}
	if s.SchemaVersion != SchemaVersion {
		return fmt.Errorf("slomon: schema_version %d, want %d", s.SchemaVersion, SchemaVersion)
	}
	if s.Objective <= 0 || s.Objective >= 1 {
		return fmt.Errorf("slomon: objective %v outside (0,1)", s.Objective)
	}
	if len(s.Windows) != 3 {
		return fmt.Errorf("slomon: %d windows, want 3", len(s.Windows))
	}
	if err := validateScope("fleet", s.Fleet); err != nil {
		return err
	}
	for _, sc := range s.Models {
		if sc.Model == "" {
			return fmt.Errorf("slomon: model scope with empty model name")
		}
		if err := validateScope("model "+sc.Model, sc); err != nil {
			return err
		}
	}
	return nil
}

func validateScope(label string, sc ScopeSnapshot) error {
	switch sc.Alert.State {
	case "ok", "warn", "page":
	default:
		return fmt.Errorf("slomon: %s: alert state %q", label, sc.Alert.State)
	}
	if sc.ErrorBudgetRemaining < 0 || sc.ErrorBudgetRemaining > 1 {
		return fmt.Errorf("slomon: %s: error_budget_remaining %v outside [0,1]", label, sc.ErrorBudgetRemaining)
	}
	var causeSum uint64
	for name, n := range sc.Causes {
		known := false
		for _, k := range causeNames {
			if name == k {
				known = true
				break
			}
		}
		if !known {
			return fmt.Errorf("slomon: %s: unknown cause %q", label, name)
		}
		causeSum += n
	}
	if causeSum != sc.TokensMissed {
		return fmt.Errorf("slomon: %s: cause counters sum to %d, missed tokens %d",
			label, causeSum, sc.TokensMissed)
	}
	if len(sc.Windowed) != 3 {
		return fmt.Errorf("slomon: %s: %d windowed entries, want 3", label, len(sc.Windowed))
	}
	for _, w := range sc.Windowed {
		if w.Attainment < 0 || w.Attainment > 1 {
			return fmt.Errorf("slomon: %s: window %s attainment %v outside [0,1]", label, w.Window, w.Attainment)
		}
		if w.Met+w.Missed > 0 {
			want := slo.Counts{Met: w.Met, Missed: w.Missed}.Attainment()
			if math.Abs(w.Attainment-want) > 1e-9 {
				return fmt.Errorf("slomon: %s: window %s attainment %v inconsistent with met/missed %d/%d",
					label, w.Window, w.Attainment, w.Met, w.Missed)
			}
		}
		if w.BurnRate < 0 {
			return fmt.Errorf("slomon: %s: window %s negative burn rate", label, w.Window)
		}
	}
	if c := sc.Cumulative; c != nil {
		if c.Attainment < 0 || c.Attainment > 1 {
			return fmt.Errorf("slomon: %s: cumulative attainment %v outside [0,1]", label, c.Attainment)
		}
	}
	return nil
}
