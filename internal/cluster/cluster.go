// Package cluster implements the proxy layer of Fig. 5: a load-balancing
// front end that dispatches multi-model requests to Aegaeon deployments
// (one per parallelism configuration, as in the §7.5 production setup) and
// synchronizes request metadata through the shared metadata store.
package cluster

import (
	"fmt"
	"strings"
	"time"

	"aegaeon/internal/core"
	"aegaeon/internal/decision"
	"aegaeon/internal/engine"
	"aegaeon/internal/fault"
	"aegaeon/internal/fleetobs"
	"aegaeon/internal/latency"
	"aegaeon/internal/market"
	"aegaeon/internal/metastore"
	"aegaeon/internal/model"
	"aegaeon/internal/obs"
	"aegaeon/internal/overload"
	"aegaeon/internal/prefixcache"
	"aegaeon/internal/sim"
	"aegaeon/internal/slo"
	"aegaeon/internal/slomon"
	"aegaeon/internal/workload"
)

// DeploymentConfig describes one Aegaeon deployment inside the cluster.
type DeploymentConfig struct {
	Name       string
	TP         int
	NumPrefill int
	NumDecode  int
	Models     []*model.Model
}

// Deployment is a running Aegaeon system plus its routing table entry.
type Deployment struct {
	Name   string
	TP     int
	System *core.System
}

// Config parameterizes the whole cluster.
type Config struct {
	Prof        *latency.Profile
	SLO         slo.SLO
	Deployments []DeploymentConfig

	// The optional subsystems, built by assemble.Build and shared by every
	// deployment: each field means what the same core.Config field means,
	// and nil or false keeps the cluster byte-identical to a build without
	// it. At cluster level, Faults also enables the proxy's retry and
	// recovery accounting; Prefix gives each deployment its own cache over
	// its own CPU KV pool (models are disjoint across deployments); and
	// Fleet and Market key devices by instance name, so they assume the
	// gateway's single-deployment layout. The gateway reads the ledger, the
	// market and the brownout controller back through Cluster.Fleet,
	// Cluster.Market and Cluster.Overload; a controller there turns on
	// overload control in the scheduler and, with it, the gateway's retry
	// budget and brownout tick.
	Obs       *obs.Collector
	SLOMon    *slomon.Monitor
	Faults    *fault.Faults
	Overload  *overload.Controller
	Fleet     *fleetobs.Ledger
	Market    *market.Market
	Decisions *decision.Journal
	Prefix    bool

	// StoreSeed has no effect: the metadata store draws no randomness.
	// bench/perf/gateway.go still sets it, so it stays until that caller
	// drops it.
	StoreSeed int64
}

// storeRTT is the metadata store's round trip.
const storeRTT = time.Millisecond

// Cluster is the proxy plus its deployments.
type Cluster struct {
	eng   *sim.Engine
	cfg   Config
	store *metastore.Store
	deps  []*Deployment
	route map[string]*Deployment // model name -> deployment

	// routeMirror is the proxy's watch-maintained copy of the store's
	// route/ table: it must converge to Routes() by drain time no matter
	// what partitions interleaved with the writes (the watch-replay
	// ordering invariant chaos audits).
	routeMirror map[string]string

	healthOn   bool
	healthStop bool
	failovers  int
}

// New builds the cluster and its deployments.
func New(se *sim.Engine, cfg Config) (*Cluster, error) {
	if len(cfg.Deployments) == 0 {
		return nil, fmt.Errorf("cluster: no deployments configured")
	}
	c := &Cluster{
		eng:         se,
		cfg:         cfg,
		route:       map[string]*Deployment{},
		routeMirror: map[string]string{},
		store:       metastore.New(se, storeRTT),
	}
	c.store.Watch("route/", func(k, v string) {
		name := strings.TrimPrefix(k, "route/")
		if v == "" {
			delete(c.routeMirror, name)
		} else {
			c.routeMirror[name] = v
		}
	})
	// One registry across deployments: they share the observers, so a model
	// id must name one model in all of them.
	ids := model.NewRegistry()
	for _, dc := range cfg.Deployments {
		sys := core.NewSystemIn(se, core.Config{
			Prof:       cfg.Prof,
			TP:         dc.TP,
			Opts:       engine.AllOptimizations(),
			NumPrefill: dc.NumPrefill,
			NumDecode:  dc.NumDecode,
			Models:     dc.Models,
			SLO:        cfg.SLO,
			Obs:        cfg.Obs,
			SLOMon:     cfg.SLOMon,
			Fleet:      cfg.Fleet,
			Faults:     cfg.Faults,
			Overload:   cfg.Overload,
			Prefix:     cfg.Prefix,
			Market:     cfg.Market,
			Decisions:  cfg.Decisions,
		}, ids)
		dep := &Deployment{Name: dc.Name, TP: dc.TP, System: sys}
		for _, m := range dc.Models {
			if prev, dup := c.route[m.Name]; dup {
				return nil, fmt.Errorf("cluster: model %q in deployments %q and %q",
					m.Name, prev.Name, dc.Name)
			}
			c.route[m.Name] = dep
			c.putRoute(m.Name, dc.Name, 0)
		}
		c.deps = append(c.deps, dep)
	}
	return c, nil
}

// putRoute writes one routing-table entry, retrying with a fixed backoff
// until acknowledged. A write submitted inside a partition window is
// dropped, so a bounded retry loop (rather than a fire-and-forget Set) is
// what guarantees the table lands.
func (c *Cluster) putRoute(model, dep string, attempt int) {
	c.store.Set("route/"+model, dep, func(err error) {
		if err == nil || attempt >= 20 || c.healthStop {
			return
		}
		c.eng.After(500*time.Millisecond, func() { c.putRoute(model, dep, attempt+1) })
	})
}

// Store exposes the metadata store.
func (c *Cluster) Store() *metastore.Store { return c.store }

// RouteMirror returns the proxy's watch-maintained routing-table copy.
func (c *Cluster) RouteMirror() map[string]string {
	out := make(map[string]string, len(c.routeMirror))
	for k, v := range c.routeMirror {
		out[k] = v
	}
	return out
}

// FaultStats snapshots the shared fault counters (zero value when the
// cluster was built without fault state).
func (c *Cluster) FaultStats() fault.Stats { return c.cfg.Faults.Snapshot() }

// Deployments returns the running deployments.
func (c *Cluster) Deployments() []*Deployment { return c.deps }

// Submit routes the trace through the proxy: each request's assignment is
// recorded in the metadata store at its arrival (status sync, Fig. 5 ①②⑥)
// and forwarded to the owning deployment. Deployments queue their arrivals
// in deployment order, so same-instant arrivals on different deployments
// tie-break the same way every run. A trace naming an unserved model is
// rejected whole: nothing is scheduled.
func (c *Cluster) Submit(trace []workload.Request) error {
	type assignment struct{ id, dep string }
	assigned := make([]assignment, len(trace))
	times := make([]sim.Time, len(trace))
	perDep := make(map[*Deployment][]workload.Request, len(c.deps))
	for i, r := range trace {
		dep, ok := c.route[r.Model]
		if !ok {
			return fmt.Errorf("cluster: no deployment serves model %q", r.Model)
		}
		assigned[i], times[i] = assignment{r.ID, dep.Name}, r.Arrival
		perDep[dep] = append(perDep[dep], r)
	}
	c.eng.Feed(times, func(i int) {
		c.store.Set("req/"+assigned[i].id, assigned[i].dep, nil)
	})
	for _, dep := range c.deps {
		if err := dep.System.Submit(perDep[dep]); err != nil {
			return err
		}
	}
	return nil
}

// SubmitLive routes one live request through the proxy at the current
// virtual time: the assignment is recorded in the metadata store (and
// cleared on completion, mirroring Fig. 5's status sync) and the request is
// forwarded to the owning deployment. Must run on the simulation goroutine.
func (c *Cluster) SubmitLive(wr workload.Request, onToken func(i int, at sim.Time), onDone func(*core.Request)) (*core.Request, error) {
	dep, ok := c.route[wr.Model]
	if !ok {
		return nil, fmt.Errorf("cluster: no deployment serves model %q", wr.Model)
	}
	c.store.Set("req/"+wr.ID, dep.Name, nil)
	return dep.System.SubmitLive(wr, onToken, func(r *core.Request) {
		c.store.Delete("req/"+wr.ID, nil)
		if onDone != nil {
			onDone(r)
		}
	})
}

// Abort cancels a live request whose client has disconnected: the owning
// deployment releases its KV and queue slots. Like every other ending, the
// abort fires OnDone, so the SubmitLive wrapper clears the request's
// metadata entry. Must run on the simulation goroutine.
func (c *Cluster) Abort(r *core.Request) {
	if r == nil {
		return
	}
	if dep, ok := c.route[r.Model.Name]; ok {
		dep.System.Abort(r)
	}
}

// Fleet exposes the fleet utilization ledger (nil when accounting is off).
func (c *Cluster) Fleet() *fleetobs.Ledger { return c.cfg.Fleet }

// Market exposes the shared spot-market model (nil when not configured).
func (c *Cluster) Market() *market.Market { return c.cfg.Market }

// Decisions exposes the shared decision journal (nil when provenance is off).
func (c *Cluster) Decisions() *decision.Journal { return c.cfg.Decisions }

// Routes returns the model -> deployment routing table (copy).
func (c *Cluster) Routes() map[string]string {
	out := make(map[string]string, len(c.route))
	for m, d := range c.route {
		out[m] = d.Name
	}
	return out
}

// Switches sums preemptive auto-scaling switch counts across all instances
// of all deployments.
func (c *Cluster) Switches() uint64 {
	var n uint64
	for _, d := range c.deps {
		for _, e := range d.System.Engines() {
			n += e.Stats().Switches
		}
	}
	return n
}

// VirtualNow returns the simulation clock. Must run on the simulation
// goroutine.
func (c *Cluster) VirtualNow() time.Duration { return c.eng.Now() }

// GPUInfo describes one instance's device for the debug endpoints.
type GPUInfo struct {
	Deployment string `json:"deployment"`
	Instance   string `json:"instance"`
	Model      string `json:"model"` // currently resident model ("" if none)
	Switches   uint64 `json:"switches_total"`
}

// GPUInfos lists every instance's device with its current occupant model.
// Must run on the simulation goroutine.
func (c *Cluster) GPUInfos() []GPUInfo {
	var out []GPUInfo
	for _, d := range c.deps {
		for _, e := range d.System.Engines() {
			info := GPUInfo{Deployment: d.Name, Instance: e.Name, Switches: e.Stats().Switches}
			if m := e.Current(); m != nil {
				info.Model = m.Name
			}
			out = append(out, info)
		}
	}
	return out
}

// Finalize finalizes all deployments at end.
func (c *Cluster) Finalize(end sim.Time) {
	for _, d := range c.deps {
		d.System.Finalize(end)
	}
}

// Attainment returns the request-weighted token attainment across
// deployments.
func (c *Cluster) Attainment() float64 {
	var sum slo.Counts
	for _, d := range c.deps {
		met, missed := d.System.Tracker().Tokens()
		sum.Met += met
		sum.Missed += missed
	}
	return sum.Attainment()
}

// Completed sums completions.
func (c *Cluster) Completed() int {
	n := 0
	for _, d := range c.deps {
		n += d.System.Completed()
	}
	return n
}

// Overload exposes the shared brownout controller (nil when overload
// control is not configured).
func (c *Cluster) Overload() *overload.Controller { return c.cfg.Overload }

// StepOverload steps the shared brownout controller once, from the backlog
// summed over every deployment, under the rule each deployment's admission
// path steps it by (core.OverloadSignals). The live gateway calls it on a
// wall-clock tick so the level escalates and recovers even when no
// admissions arrive. Without a controller or a monitor it does nothing.
// Must run on the simulation goroutine.
func (c *Cluster) StepOverload() {
	if c.cfg.Overload == nil || c.cfg.SLOMon == nil {
		return
	}
	var queued, limit int
	for _, d := range c.deps {
		q, l := d.System.PrefillBacklog()
		queued += q
		limit += l
	}
	sig, _ := core.OverloadSignals(c.cfg.SLOMon, queued, limit)
	c.cfg.Overload.Step(c.eng.Now(), sig)
}

// PrefixCaches returns each deployment's prefix cache keyed by deployment
// name (empty map when the prefix cache is disabled).
func (c *Cluster) PrefixCaches() map[string]*prefixcache.Cache {
	out := map[string]*prefixcache.Cache{}
	for _, d := range c.deps {
		if pc := d.System.PrefixCache(); pc != nil {
			out[d.Name] = pc
		}
	}
	return out
}
