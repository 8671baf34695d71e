package market

import (
	"sort"
	"time"

	"aegaeon/internal/fleetobs"
	"aegaeon/internal/sim"
)

// SchemaVersion identifies the snapshot JSON schema.
const SchemaVersion = 1

// Stats are the market's cumulative counters.
type Stats struct {
	// Preemptions counts delivered reclaim notices; Revocations counts
	// deadlines that fired (a notice still open at run end revokes never).
	Preemptions int `json:"preemptions"`
	Revocations int `json:"revocations"`
	// DeadlinesMissed counts revocations that caught KV still on-device.
	DeadlinesMissed int `json:"deadlines_missed"`
	// EvacuatedKVBytes were drained to the host tier ahead of a deadline;
	// LostKVBytes were still GPU-resident at revocation (re-prefill);
	// RehomedPrefixBytes are prefix device copies whose chains survive in
	// the host tier.
	EvacuatedKVBytes   int64 `json:"evacuated_kv_bytes"`
	LostKVBytes        int64 `json:"lost_kv_bytes"`
	RehomedPrefixBytes int64 `json:"rehomed_prefix_bytes"`
	// Throttles and Disqualifications count capability-scoring events;
	// PriceTicks counts price-trace steps.
	Throttles         int `json:"throttles"`
	Disqualifications int `json:"disqualifications"`
	PriceTicks        int `json:"price_ticks"`
}

// PreemptionRecord is the audit trail of one reclaim notice.
type PreemptionRecord struct {
	Device string `json:"device"`
	Class  string `json:"class"`
	// NoticeAtS/GraceS describe the notice; RevokedAtS is -1 while open.
	NoticeAtS  float64 `json:"notice_at_s"`
	GraceS     float64 `json:"grace_s"`
	RevokedAtS float64 `json:"revoked_at_s"`
	// Byte accounting mirrors Stats, scoped to this preemption.
	EvacuatedKVBytes   int64 `json:"evacuated_kv_bytes"`
	LostKVBytes        int64 `json:"lost_kv_bytes"`
	RehomedPrefixBytes int64 `json:"rehomed_prefix_bytes"`
}

// DeviceState is one device's market view at the snapshot instant.
type DeviceState struct {
	Device             string  `json:"device"`
	Class              string  `json:"class"`
	RateDollarsPerHour float64 `json:"rate_dollars_per_hour"`
	UnderNotice        bool    `json:"under_notice,omitempty"`
	DeadlineS          float64 `json:"deadline_s,omitempty"`
	Revoked            bool    `json:"revoked,omitempty"`
	ThrottleFactor     float64 `json:"throttle_factor,omitempty"`
	Disqualified       bool    `json:"disqualified,omitempty"`
	Errors             int     `json:"errors,omitempty"`
	Eligible           bool    `json:"eligible"`
	CapabilityScore    float64 `json:"capability_score"`
}

// ClassEconomics rolls one device class up across the fleet, joined against
// the fleet ledger's per-device cost integrals and goodput tokens.
type ClassEconomics struct {
	Class       string  `json:"class"`
	Devices     int     `json:"devices"`
	MeanRate    float64 `json:"mean_rate_dollars_per_hour"`
	CostDollars float64 `json:"cost_dollars"`
	Tokens      uint64  `json:"tokens"`
	// DollarsPer1KTokens is the class's unit economics: cost over goodput.
	// Zero when the class produced no tokens.
	DollarsPer1KTokens float64 `json:"dollars_per_1k_tokens"`
	Preemptions        int     `json:"preemptions"`
	EvacuatedKVBytes   int64   `json:"evacuated_kv_bytes"`
	LostKVBytes        int64   `json:"lost_kv_bytes"`
}

// Snapshot is the full market rendering at one instant.
type Snapshot struct {
	SchemaVersion int                `json:"schema_version"`
	NowSeconds    float64            `json:"now_s"`
	Spot          bool               `json:"spot"`
	Aware         bool               `json:"aware"`
	Devices       []DeviceState      `json:"devices"`
	Classes       []ClassEconomics   `json:"classes"`
	Preemptions   []PreemptionRecord `json:"preemptions,omitempty"`
	Stats         Stats              `json:"stats"`
}

// Stats returns a copy of the cumulative counters.
func (m *Market) Stats() Stats {
	if m == nil {
		return Stats{}
	}
	return m.stats
}

// Records returns a copy of every preemption record so far.
func (m *Market) Records() []PreemptionRecord {
	if m == nil {
		return nil
	}
	return append([]PreemptionRecord(nil), m.recs...)
}

// Snapshot renders the market at instant now. fleet may be nil (class
// economics then carry no dollars or tokens); when given, per-device cost
// and goodput join on device name.
func (m *Market) Snapshot(now sim.Time, fleet *fleetobs.Snapshot) *Snapshot {
	if m == nil {
		return nil
	}
	fleetDev := map[string]*fleetobs.DeviceSnapshot{}
	if fleet != nil {
		for i := range fleet.Devices {
			fleetDev[fleet.Devices[i].Device] = &fleet.Devices[i]
		}
	}
	snap := &Snapshot{
		SchemaVersion: SchemaVersion,
		NowSeconds:    time.Duration(now).Seconds(),
		Spot:          m.cfg.Spot,
		Aware:         m.cfg.Aware,
		Preemptions:   append([]PreemptionRecord(nil), m.recs...),
		Stats:         m.stats,
	}
	best := 0.0
	for _, c := range m.cfg.Classes {
		if c.Prof.PeakFLOPS > best {
			best = c.Prof.PeakFLOPS
		}
	}
	classes := map[string]*ClassEconomics{}
	for _, n := range m.order {
		d := m.devices[n]
		ds := DeviceState{
			Device:             n,
			Class:              d.class.Name,
			RateDollarsPerHour: d.rate,
			UnderNotice:        d.underNotice,
			Revoked:            d.revoked,
			Disqualified:       d.disqualified,
			Errors:             d.errors,
			Eligible:           !d.revoked && !d.underNotice && !d.disqualified && !d.lowHeadroom,
			CapabilityScore:    1,
		}
		if d.underNotice {
			ds.DeadlineS = time.Duration(d.deadline).Seconds()
		}
		if d.throttle > 1 {
			ds.ThrottleFactor = d.throttle
		}
		if best > 0 {
			ds.CapabilityScore = d.class.Prof.PeakFLOPS / best
		}
		if d.throttle > 1 {
			ds.CapabilityScore /= d.throttle
		}
		snap.Devices = append(snap.Devices, ds)

		ce := classes[d.class.Name]
		if ce == nil {
			ce = &ClassEconomics{Class: d.class.Name}
			classes[d.class.Name] = ce
		}
		ce.Devices++
		ce.MeanRate += d.rate
		if fd := fleetDev[n]; fd != nil {
			ce.CostDollars += fd.CostDollars
			ce.Tokens += fd.Tokens
		}
	}
	for _, r := range m.recs {
		if ce := classes[r.Class]; ce != nil {
			ce.Preemptions++
			ce.EvacuatedKVBytes += r.EvacuatedKVBytes
			ce.LostKVBytes += r.LostKVBytes
		}
	}
	names := make([]string, 0, len(classes))
	for n := range classes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ce := classes[n]
		if ce.Devices > 0 {
			ce.MeanRate /= float64(ce.Devices)
		}
		if ce.Tokens > 0 {
			ce.DollarsPer1KTokens = ce.CostDollars / float64(ce.Tokens) * 1000
		}
		snap.Classes = append(snap.Classes, *ce)
	}
	return snap
}
