// Package assemble is the one place the optional serving subsystems are
// constructed: the obs collector, the SLO monitor, the overload
// controller, the prefix cache, the fleet ledger, the spot market and the
// decision journal. Build closes a Spec under the implication table and
// constructs what it names in dependency order; Core and Cluster thread
// the handles into a deployment's or a cluster's config. Schemas is the
// one table of the versioned snapshots those subsystems export.
package assemble

import (
	"encoding/json"
	"fmt"

	"aegaeon/internal/cluster"
	"aegaeon/internal/core"
	"aegaeon/internal/decision"
	"aegaeon/internal/fault"
	"aegaeon/internal/fleetobs"
	"aegaeon/internal/market"
	"aegaeon/internal/model"
	"aegaeon/internal/obs"
	"aegaeon/internal/overload"
	"aegaeon/internal/sim"
	"aegaeon/internal/slomon"
)

// Spec is a flat description of a run's optional subsystems. Build also
// turns on whatever a requested subsystem needs (see closed).
type Spec struct {
	// Which subsystems to build. Tracing is the obs collector;
	// PrefixRouting is the prefix cache, which always routes by prefix.
	Tracing, SLOMonitor, Overload bool
	PrefixRouting                 bool
	FleetAccounting, Market       bool
	Decisions                     bool

	Objective float64 // SLO monitor objective (0 = its default, 0.99)
	// MarketClasses is the device-class cycle ("" = homogeneous H800);
	// MarketSpot turns on spot pricing; MarketNaive is the preemption-blind
	// arm. Seed seeds the market's price traces.
	MarketClasses           string
	MarketSpot, MarketNaive bool
	Seed                    int64
	// Models and TP (< 1 means 1) are checked against every market class.
	Models []*model.Model
	TP     int
	// Faults is the caller's fault runtime, or nil. When present, the SLO
	// monitor attributes misses inside its failure windows to faults.
	Faults *fault.Faults
}

// closed returns the spec with every implication applied: the one table of
// what each optional subsystem needs. It is ordered so one pass closes it.
func (s Spec) closed() Spec {
	for _, imp := range [...]struct{ on, needs *bool }{
		// The brownout controller steps off the monitor's burn-rate alerts.
		{&s.Overload, &s.SLOMonitor},
		// Miss attribution joins tokens against the collector's spans.
		{&s.SLOMonitor, &s.Tracing},
		// Class economics join against the ledger's cost and goodput.
		{&s.Market, &s.FleetAccounting},
	} {
		if *imp.on {
			*imp.needs = true
		}
	}
	return s
}

// Parts holds the subsystems Build constructed. A nil (false) field is a
// subsystem the run does not carry.
type Parts struct {
	Obs       *obs.Collector
	SLOMon    *slomon.Monitor
	Overload  *overload.Controller
	Prefix    bool // the prefix cache, built per deployment
	Fleet     *fleetobs.Ledger
	Market    *market.Market
	Decisions *decision.Journal
	Faults    *fault.Faults
}

// Build constructs the subsystems spec names on se's clock. se may be nil
// when the spec needs no clock (neither FleetAccounting nor Market). It
// fails on an unknown market class, or one whose VRAM cannot hold the
// largest model shard.
func Build(se *sim.Engine, spec Spec) (*Parts, error) {
	spec = spec.closed()
	p := &Parts{Prefix: spec.PrefixRouting, Faults: spec.Faults}
	if spec.Tracing {
		p.Obs = obs.New(obs.Options{})
	}
	if spec.SLOMonitor {
		cfg := slomon.Config{Objective: spec.Objective, Source: p.Obs}
		if f := spec.Faults; f != nil {
			cfg.FaultActive = func(model, instance string) bool {
				return f.TransferFailing(instance) || f.FetchFailing(model)
			}
		}
		p.SLOMon = slomon.New(cfg)
	}
	if spec.Overload {
		p.Overload = overload.NewController()
	}
	if spec.FleetAccounting {
		p.Fleet = fleetobs.New(se)
	}
	if spec.Market {
		classes, err := market.ParseClasses(spec.MarketClasses)
		if err != nil {
			return nil, err
		}
		tp := max(spec.TP, 1)
		for _, c := range classes {
			if core.CheckFit(c.Prof, spec.Models, tp) != nil {
				m, shard := core.LargestShard(spec.Models, tp)
				return nil, fmt.Errorf(
					"model %s (%.1f GB shard) does not fit market class %s (%.1f GB VRAM); use smaller models (e.g. SmallModels) or bigger classes",
					m.Name, float64(shard)/1e9, c.Name, float64(c.Prof.VRAMBytes)/1e9)
			}
		}
		p.Market = market.New(se, p.Fleet, market.Config{
			Classes: classes,
			Spot:    spec.MarketSpot,
			Aware:   !spec.MarketNaive,
			Seed:    spec.Seed,
		})
	}
	if spec.Decisions {
		p.Decisions = decision.New(decision.Options{})
	}
	return p, nil
}

// Core threads the parts into one deployment's config.
func (p *Parts) Core(c *core.Config) {
	c.Obs, c.SLOMon, c.Overload, c.Prefix = p.Obs, p.SLOMon, p.Overload, p.Prefix
	c.Fleet, c.Market, c.Decisions, c.Faults = p.Fleet, p.Market, p.Decisions, p.Faults
}

// Cluster threads the parts into a cluster's config, shared by every
// deployment.
func (p *Parts) Cluster(c *cluster.Config) {
	c.Obs, c.SLOMon, c.Overload, c.Prefix = p.Obs, p.SLOMon, p.Overload, p.Prefix
	c.Fleet, c.Market, c.Decisions, c.Faults = p.Fleet, p.Market, p.Decisions, p.Faults
}

// Schema is one row of the snapshot table: a versioned JSON snapshot an
// optional subsystem exports. The gateway serves it on /debug/<Name>,
// aegaeon-sim -report checks it and writes it to <Name>.json, and
// aegaeon-trace -mode validate-<Name> checks such a file.
type Schema struct {
	Name string
	// Debug describes /debug/<Name> on the /debug index; "" when the
	// snapshot has no route of its own. Off is the 404 message every route
	// of the subsystem answers when it is absent.
	Debug, Off string
	// Has reports whether p carries the subsystem; Snapshot renders it at
	// now and needs it.
	Has      func(p *Parts) bool
	Snapshot func(p *Parts, now sim.Time) any
	check    func(data []byte) error // nil: the schema has no check
}

// Schemas is the snapshot table, in report order.
var Schemas = []Schema{
	{Name: "slo", Debug: "live SLO attainment, burn rates, error budgets",
		Off:      "SLO monitoring disabled (no monitor configured)",
		Has:      func(p *Parts) bool { return p.SLOMon != nil },
		Snapshot: func(p *Parts, now sim.Time) any { return p.SLOMon.Snapshot(now) },
		check:    check[slomon.Snapshot]},
	{Name: "fleet", Debug: "fleet utilization ledger snapshot",
		Off:      "fleet accounting disabled (cluster built without a fleet ledger)",
		Has:      func(p *Parts) bool { return p.Fleet != nil },
		Snapshot: func(p *Parts, now sim.Time) any { return p.Fleet.Snapshot(now) },
		check:    check[fleetobs.Snapshot]},
	// Class economics join against the fleet ledger's snapshot.
	{Name: "market", Debug: "spot-market prices, notices, preemption economics",
		Off:      "spot market disabled (cluster built without a market model)",
		Has:      func(p *Parts) bool { return p.Market != nil },
		Snapshot: func(p *Parts, now sim.Time) any { return p.Market.Snapshot(now, p.Fleet.Snapshot(now)) }},
	// The journal's chains are served per request, on /debug/why/{id}.
	{Name: "why", Off: "decision journal disabled (no journal configured)",
		Has:      func(p *Parts) bool { return p.Decisions != nil },
		Snapshot: func(p *Parts, _ sim.Time) any { return p.Decisions.Snapshot() },
		check:    check[decision.Export]},
}

// validator is a snapshot that checks itself.
type validator interface{ Validate() error }

// check decodes data as a T and validates it.
func check[T any, P interface {
	*T
	validator
}](data []byte) error {
	var s T
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	return P(&s).Validate()
}

// Checked reports whether the schema has a check.
func (s Schema) Checked() bool { return s.check != nil }

// Check decodes data as the schema's snapshot and validates it, naming the
// schema in the error. A schema without a check accepts anything.
func (s Schema) Check(data []byte) error {
	if s.check == nil {
		return nil
	}
	if err := s.check(data); err != nil {
		return fmt.Errorf("%s snapshot: %w", s.Name, err)
	}
	return nil
}
