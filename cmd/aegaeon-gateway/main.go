// Command aegaeon-gateway serves live traffic against an Aegaeon cluster:
// the deterministic simulation core replays against the wall clock while
// HTTP clients stream completions token by token.
//
//	POST /v1/completions   {"model":"...","max_tokens":16,"stream":true} → SSE
//	GET  /v1/models        served model catalog with deployment routing
//	GET  /metrics          Prometheus text metrics
//	GET  /healthz          liveness (503 while draining)
//	GET  /debug            index of every debug endpoint, each with its description
//
// A debug endpoint whose subsystem is off answers 404 with a JSON error
// naming what is missing.
//
// Example:
//
//	aegaeon-gateway -addr :8080 -models 8 -speedup 10 &
//	curl -sN localhost:8080/v1/completions \
//	    -d '{"model":"'$(curl -s localhost:8080/v1/models | jq -r .data[0].id)'","max_tokens":8,"stream":true}'
//
// SIGINT/SIGTERM drain gracefully: admission stops (503), in-flight decodes
// finish at full simulation speed, then the process exits.
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"aegaeon/internal/assemble"
	"aegaeon/internal/cluster"
	"aegaeon/internal/gateway"
	"aegaeon/internal/latency"
	"aegaeon/internal/model"
	"aegaeon/internal/sim"
	"aegaeon/internal/slo"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	gpu := flag.String("gpu", "H800", "GPU profile: H800, A10, H20")
	tp := flag.Int("tp", 1, "tensor parallel degree")
	numModels := flag.Int("models", 8, "number of market models to serve")
	prefill := flag.Int("prefill", 2, "prefill instances")
	decode := flag.Int("decode", 4, "decoding instances")
	seed := flag.Int64("seed", 1, "simulation seed")
	speedup := flag.Float64("speedup", 1, "virtual seconds per wall second")
	rate := flag.Float64("rate", 0, "admission rate limit in req/s (0 = unlimited)")
	burst := flag.Int("burst", 16, "admission rate limit burst")
	maxQueue := flag.Int("max-queue", 256, "max admitted requests per model")
	maxInflight := flag.Int("max-inflight", 1024, "max admitted requests total")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful drain deadline")
	noTrace := flag.Bool("no-trace", false, "disable the observability collector and /debug endpoints")
	noSLO := flag.Bool("no-slo", false, "disable the live SLO monitor and /debug/slo + /debug/dash endpoints")
	objective := flag.Float64("slo-objective", 0.99, "SLO attainment objective for burn-rate alerting, in (0,1)")
	overloadOn := flag.Bool("overload", false, "enable overload control: the scheduler sheds doomed and low-tier arrivals and steps a brownout ladder, the gateway answers with its verdict and budgets retries (implies SLO monitoring)")
	prefixOn := flag.Bool("prefix", false, "enable the global prefix cache with cache-aware routing: pass session_id/turn on completions to reuse earlier turns' KV; adds /debug/prefix and aegaeon_prefix_* metrics")
	fleetOn := flag.Bool("fleet", false, "enable the fleet utilization ledger: every GPU-second classified by state with goodput attribution; adds /debug/fleet, the dashboard heatmap, and aegaeon_fleet_* metrics")
	marketOn := flag.Bool("market", false, "enable the spot-market fleet model: device classes, price traces, preemption-aware placement; adds /debug/market and aegaeon_market_* metrics (implies -fleet)")
	marketClasses := flag.String("market-classes", "", "comma-separated device classes cycled across the pool, e.g. H800,A10 (with -market; empty = homogeneous H800; small-VRAM classes need models that fit)")
	marketSpot := flag.Bool("market-spot", false, "activate spot pricing and reclaim risk (with -market)")
	marketNaive := flag.Bool("market-naive", false, "disable preemption-aware placement and KV evacuation: the spot-naive baseline arm (with -market)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof profiling handlers under /debug/pprof/")
	noWhy := flag.Bool("no-decisions", false, "disable the decision-provenance journal and the /debug/decisions + /debug/why/{id} endpoints")
	flag.Parse()

	prof, err := latency.ProfileByName(*gpu)
	if err != nil {
		log.Fatal(err)
	}
	models := model.MarketMix(*numModels)
	se := sim.NewEngine(*seed)
	// One set of subsystems shared between the cluster and the gateway: the
	// brownout controller the scheduler sheds by is the one the gateway
	// ticks and reports, the journal's chains span both layers, and the
	// fleet ledger and market the devices feed are the ones the gateway
	// scrapes.
	parts, err := assemble.Build(se, assemble.Spec{
		Tracing:         !*noTrace,
		SLOMonitor:      !*noSLO,
		Overload:        *overloadOn,
		PrefixRouting:   *prefixOn,
		FleetAccounting: *fleetOn,
		Market:          *marketOn,
		Decisions:       !*noWhy,
		Objective:       *objective,
		MarketClasses:   *marketClasses,
		MarketSpot:      *marketSpot,
		MarketNaive:     *marketNaive,
		Seed:            *seed,
		Models:          models,
		TP:              *tp,
	})
	if err != nil {
		log.Fatal(err)
	}
	clCfg := cluster.Config{
		Prof: prof,
		SLO:  slo.Default(),
		Deployments: []cluster.DeploymentConfig{{
			Name:       "live",
			TP:         *tp,
			NumPrefill: *prefill,
			NumDecode:  *decode,
			Models:     models,
		}},
	}
	parts.Cluster(&clCfg)
	cl, err := cluster.New(se, clCfg)
	if err != nil {
		log.Fatal(err)
	}
	// Bound the price trace: a live gateway rarely outruns a virtual day,
	// and an unbounded trace would keep the event queue from draining.
	parts.Market.Start(sim.Time(24 * time.Hour))
	drv := sim.NewDriver(se, *speedup)
	// The trace debug endpoints stay off under -no-trace even when the
	// collector exists purely to feed the SLO monitor's attribution join.
	gwCol := parts.Obs
	if *noTrace {
		gwCol = nil
	}
	gw := gateway.New(drv, cl, gateway.Options{
		MaxQueuePerModel: *maxQueue,
		MaxInFlight:      *maxInflight,
		RatePerSec:       *rate,
		Burst:            *burst,
		Obs:              gwCol,
		SLOMon:           parts.SLOMon,
		Decisions:        parts.Decisions,
		Pprof:            *pprofOn,
	})
	gw.Start()

	srv := &http.Server{
		Addr:        *addr,
		Handler:     gw.Handler(),
		ReadTimeout: 30 * time.Second,
		// No write timeout: SSE streams are long-lived by design.
	}
	go func() {
		log.Printf("aegaeon-gateway listening on %s (%d models, speedup %gx)",
			*addr, *numModels, *speedup)
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	log.Printf("draining (deadline %v)...", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := gw.Shutdown(drainCtx); err != nil {
		log.Printf("drain incomplete: %v", err)
	}
	httpCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	_ = srv.Shutdown(httpCtx)
	log.Printf("gateway stopped")
}
