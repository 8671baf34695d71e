package fleetobs

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"aegaeon/internal/model"
	"aegaeon/internal/sim"
)

// SegmentSnapshot is one closed heatmap interval in snapshot form.
type SegmentSnapshot struct {
	State  string  `json:"state"`
	Model  string  `json:"model,omitempty"`
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`
}

// DeviceSnapshot is one device's ledger at the snapshot instant. StatesS
// carries every state (zeros included) and sums exactly to WallS in sim
// time; the float rendering is for consumption, the invariant is checked on
// the integer integrals.
type DeviceSnapshot struct {
	Device  string             `json:"device"`
	WallS   float64            `json:"wall_s"`
	StatesS map[string]float64 `json:"states_s"`
	Current string             `json:"current_state"`

	BusyS        float64 `json:"busy_s"`
	BusyFraction float64 `json:"busy_fraction"`
	SwitchS      float64 `json:"switch_s"`
	SwitchRatio  float64 `json:"switch_overhead_ratio"`

	// Raw per-engine busy mirrors (the gpu.Utilization cross-check values).
	RawComputeBusyS float64 `json:"raw_compute_busy_s"`
	RawH2DBusyS     float64 `json:"raw_h2d_busy_s"`
	RawD2HBusyS     float64 `json:"raw_d2h_busy_s"`

	Faulted bool `json:"faulted"`

	KVUsedBytes     int64 `json:"kv_used_bytes"`
	KVPeakBytes     int64 `json:"kv_peak_bytes"`
	KVCapacityBytes int64 `json:"kv_capacity_bytes"`

	GPUHours    float64 `json:"gpu_hours"`
	HourlyRate  float64 `json:"hourly_rate"`
	CostDollars float64 `json:"cost_dollars"`

	Tokens uint64 `json:"tokens"`

	Segments     []SegmentSnapshot `json:"segments,omitempty"`
	SegmentsLost uint64            `json:"segments_lost,omitempty"`
}

// ModelSnapshot aggregates one model's goodput economics across devices.
type ModelSnapshot struct {
	Model string `json:"model"`
	// Tokens is the model's goodput token count across the fleet.
	Tokens uint64 `json:"tokens"`
	// ComputeS is the compute-state GPU-seconds attributed to the model.
	ComputeS float64 `json:"compute_s"`
	// OccupancyShare is ComputeS over all models' compute seconds.
	OccupancyShare float64 `json:"occupancy_share"`
	// TokensPerGPUSecond is Tokens / ComputeS (0 when no compute time).
	TokensPerGPUSecond float64 `json:"tokens_per_gpu_second"`
}

// FleetTotals is the cross-device rollup.
type FleetTotals struct {
	Devices      int                `json:"devices"`
	GPUSeconds   float64            `json:"gpu_seconds"`
	StatesS      map[string]float64 `json:"states_s"`
	BusyS        float64            `json:"busy_s"`
	BusyFraction float64            `json:"busy_fraction"`
	SwitchS      float64            `json:"switch_s"`
	SwitchRatio  float64            `json:"switch_overhead_ratio"`
	FaultedS     float64            `json:"faulted_s"`
	IdleS        float64            `json:"idle_s"`
	GPUHours     float64            `json:"gpu_hours"`
	CostDollars  float64            `json:"cost_dollars"`
	Tokens       uint64             `json:"tokens"`
	// TokensPerBusyGPUSecond is fleet goodput tokens over busy GPU-seconds.
	TokensPerBusyGPUSecond float64 `json:"tokens_per_busy_gpu_second"`
}

// Snapshot is the full ledger rendering at one instant.
type Snapshot struct {
	SchemaVersion      int              `json:"schema_version"`
	NowSeconds         float64          `json:"now_s"`
	Devices            []DeviceSnapshot `json:"devices"`
	Models             []ModelSnapshot  `json:"models,omitempty"`
	Fleet              FleetTotals      `json:"fleet"`
	ConservationErrors []string         `json:"conservation_errors,omitempty"`
}

// Snapshot renders the ledger at instant now without mutating it. The
// conservation check runs as part of every snapshot; violations surface in
// ConservationErrors (empty in any correct build).
func (l *Ledger) Snapshot(now sim.Time) *Snapshot {
	if l == nil {
		return nil
	}
	now = l.renderAt(now)
	errs := l.check(now)
	snap := &Snapshot{
		SchemaVersion:      SchemaVersion,
		NowSeconds:         time.Duration(now).Seconds(),
		ConservationErrors: errs,
		Fleet:              FleetTotals{StatesS: map[string]float64{}},
	}
	for s := State(0); s < numStates; s++ {
		snap.Fleet.StatesS[s.String()] = 0
	}
	var modelTokens []uint64
	var modelCompute []time.Duration
	var fleetBusy, fleetSwitch, fleetWall time.Duration
	for _, name := range l.order {
		d := l.devices[name]
		wall, states := d.partition(now)
		ds := DeviceSnapshot{
			Device:          name,
			WallS:           wall.Seconds(),
			StatesS:         map[string]float64{},
			Current:         d.cur.String(),
			RawComputeBusyS: d.rawBusyAt(0, now).Seconds(),
			RawH2DBusyS:     d.rawBusyAt(1, now).Seconds(),
			RawD2HBusyS:     d.rawBusyAt(2, now).Seconds(),
			Faulted:         d.faulted,
			KVUsedBytes:     d.kvUsed,
			KVPeakBytes:     d.kvPeak,
			KVCapacityBytes: d.kvCap,
			HourlyRate:      d.rate,
			SegmentsLost:    d.segsLost,
		}
		var busy, sw time.Duration
		for s := State(0); s < numStates; s++ {
			ds.StatesS[s.String()] = states[s].Seconds()
			snap.Fleet.StatesS[s.String()] += states[s].Seconds()
			if s != Idle && s != Faulted {
				busy += states[s]
			}
			if isSwitch(s) {
				sw += states[s]
			}
		}
		ds.BusyS = busy.Seconds()
		ds.SwitchS = sw.Seconds()
		if wall > 0 {
			ds.BusyFraction = float64(busy) / float64(wall)
			ds.SwitchRatio = float64(sw) / float64(wall)
		}
		ds.GPUHours = wall.Hours()
		ds.CostDollars = d.costAt(now)
		ds.Segments = make([]SegmentSnapshot, 0, len(d.segs)+1)
		for _, sg := range d.segs {
			ds.Segments = append(ds.Segments, SegmentSnapshot{
				State:  sg.State.String(),
				Model:  l.models.Name(sg.Model),
				StartS: time.Duration(sg.Start).Seconds(),
				EndS:   time.Duration(sg.End).Seconds(),
			})
		}
		if now > d.curSince {
			// The open segment, closed at the snapshot instant for display.
			ds.Segments = append(ds.Segments, SegmentSnapshot{
				State:  d.cur.String(),
				Model:  l.models.Name(d.curModel),
				StartS: time.Duration(d.curSince).Seconds(),
				EndS:   time.Duration(now).Seconds(),
			})
		}
		for m, n := range d.tokens {
			modelTokens = model.Grow(modelTokens, model.ID(m))
			modelTokens[m] += n
			ds.Tokens += n
		}
		for m, t := range d.modelBusy {
			modelCompute = model.Grow(modelCompute, model.ID(m))
			modelCompute[m] += t
		}
		fleetBusy += busy
		fleetSwitch += sw
		fleetWall += wall
		snap.Fleet.CostDollars += ds.CostDollars
		snap.Fleet.Tokens += ds.Tokens
		snap.Devices = append(snap.Devices, ds)
	}
	snap.Fleet.Devices = len(snap.Devices)
	snap.Fleet.GPUSeconds = fleetWall.Seconds()
	snap.Fleet.GPUHours = fleetWall.Hours()
	snap.Fleet.BusyS = fleetBusy.Seconds()
	snap.Fleet.SwitchS = fleetSwitch.Seconds()
	snap.Fleet.FaultedS = snap.Fleet.StatesS[Faulted.String()]
	snap.Fleet.IdleS = snap.Fleet.StatesS[Idle.String()]
	if fleetWall > 0 {
		snap.Fleet.BusyFraction = float64(fleetBusy) / float64(fleetWall)
		snap.Fleet.SwitchRatio = float64(fleetSwitch) / float64(fleetWall)
	}
	if fleetBusy > 0 {
		snap.Fleet.TokensPerBusyGPUSecond = float64(snap.Fleet.Tokens) / fleetBusy.Seconds()
	}

	var totalCompute time.Duration
	for _, t := range modelCompute {
		totalCompute += t
	}
	// Models with tokens or compute time, ordered by name.
	n := max(len(modelTokens), len(modelCompute))
	modelTokens, modelCompute = model.Grow(modelTokens, model.ID(n-1)), model.Grow(modelCompute, model.ID(n-1))
	var ids []model.ID
	for m := 0; m < n; m++ {
		if modelTokens[m] > 0 || modelCompute[m] > 0 {
			ids = append(ids, model.ID(m))
		}
	}
	sort.Slice(ids, func(i, j int) bool { return l.models.Name(ids[i]) < l.models.Name(ids[j]) })
	for _, m := range ids {
		ms := ModelSnapshot{
			Model:    l.models.Name(m),
			Tokens:   modelTokens[m],
			ComputeS: modelCompute[m].Seconds(),
		}
		if totalCompute > 0 {
			ms.OccupancyShare = float64(modelCompute[m]) / float64(totalCompute)
		}
		if modelCompute[m] > 0 {
			ms.TokensPerGPUSecond = float64(ms.Tokens) / modelCompute[m].Seconds()
		}
		snap.Models = append(snap.Models, ms)
	}
	return snap
}

// CSV renders the snapshot as a per-device table (plus a fleet rollup row)
// whose switch-stage decomposition is directly comparable to the exposed
// switch cost columns of results/figure_8_10.csv: the switch_s column is
// this run's total exposed switch cost per device.
func (s *Snapshot) CSV() string {
	var b strings.Builder
	b.WriteString("device,wall_s,idle_s,prefill_s,decode_s,compact_s,weight_load_s,kv_transfer_s,reinit_s,gc_pause_s,fetch_s,activate_s,faulted_s,busy_fraction,switch_s,switch_overhead_ratio,tokens,cost_dollars\n")
	row := func(name string, wall float64, st map[string]float64, busyFrac, sw, swRatio float64, tokens uint64, cost float64) {
		fmt.Fprintf(&b, "%s,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.4f,%.3f,%.4f,%d,%.4f\n",
			name, wall,
			st[Idle.String()], st[Prefill.String()], st[Decode.String()],
			st[Compact.String()], st[WeightLoad.String()], st[KVTransfer.String()],
			st[Reinit.String()], st[GCPause.String()], st[Fetch.String()], st[Activate.String()],
			st[Faulted.String()],
			busyFrac, sw, swRatio, tokens, cost)
	}
	for _, d := range s.Devices {
		row(d.Device, d.WallS, d.StatesS, d.BusyFraction, d.SwitchS, d.SwitchRatio, d.Tokens, d.CostDollars)
	}
	row("fleet", s.Fleet.GPUSeconds, s.Fleet.StatesS, s.Fleet.BusyFraction,
		s.Fleet.SwitchS, s.Fleet.SwitchRatio, s.Fleet.Tokens, s.Fleet.CostDollars)
	return b.String()
}

// Validate re-checks the snapshot's own arithmetic (the float rendering of
// the invariant, within one microsecond of rounding slack per device) —
// usable on deserialized snapshots where the integer ledger is gone.
func (s *Snapshot) Validate() []string {
	if s == nil {
		return []string{"nil snapshot"}
	}
	var errs []string
	if s.SchemaVersion != SchemaVersion {
		errs = append(errs, fmt.Sprintf("schema version %d, want %d", s.SchemaVersion, SchemaVersion))
	}
	const slack = 1e-6
	for _, d := range s.Devices {
		var sum float64
		for _, v := range d.StatesS {
			if v < 0 {
				errs = append(errs, fmt.Sprintf("%s: negative state seconds %v", d.Device, v))
			}
			sum += v
		}
		if diff := sum - d.WallS; diff > slack || diff < -slack {
			errs = append(errs, fmt.Sprintf("%s: states sum %.9fs, wall %.9fs", d.Device, sum, d.WallS))
		}
	}
	errs = append(errs, s.ConservationErrors...)
	return errs
}
