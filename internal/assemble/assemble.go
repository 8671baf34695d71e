// Package assemble is the one place the optional serving subsystems are
// constructed: the obs collector, the SLO monitor, the overload
// controller, the prefix cache, the fleet ledger, the spot market and the
// decision journal. Build closes a Spec under the implication table and
// constructs what it names in dependency order; Core and Cluster thread
// the handles into a deployment's or a cluster's config.
package assemble

import (
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
	"aegaeon/internal/prefixcache"
	"aegaeon/internal/sim"
	"aegaeon/internal/slomon"
)

// Spec is a flat description of a run's optional subsystems. Build also
// turns on whatever a requested subsystem needs (see closed).
type Spec struct {
	// Which subsystems to build; Tracing is the obs collector.
	Tracing, SLOMonitor, Overload bool
	PrefixCache, PrefixRouting    bool
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
		// Routing steers toward the instance holding a cached prefix.
		{&s.PrefixRouting, &s.PrefixCache},
		// Class economics join against the ledger's cost and goodput.
		{&s.Market, &s.FleetAccounting},
	} {
		if *imp.on {
			*imp.needs = true
		}
	}
	return s
}

// Parts holds the subsystems Build constructed. A nil field is a subsystem
// the run does not carry.
type Parts struct {
	Obs       *obs.Collector
	SLOMon    *slomon.Monitor
	Overload  *overload.Controller
	Prefix    *prefixcache.Config
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
	p := &Parts{Faults: spec.Faults}
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
	if spec.PrefixCache {
		p.Prefix = &prefixcache.Config{Routing: spec.PrefixRouting}
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
