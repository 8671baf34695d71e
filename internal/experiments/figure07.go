package experiments

import (
	"time"

	"aegaeon/internal/engine"
	"aegaeon/internal/kvcache"
	"aegaeon/internal/latency"
	"aegaeon/internal/memory"
	"aegaeon/internal/model"
	"aegaeon/internal/sim"
)

// Figure7 regenerates the engine (re)initialization breakdown of Fig. 7:
// the per-stage cost of bringing up a 13B model, before and after Aegaeon's
// optimizations, plus the naive vs optimized loading bandwidth.
func Figure7(o Options) Table {
	m13, err := model.ByName("LLaMA-13B")
	if err != nil {
		panic(err)
	}
	p := o.Prof
	cm := latency.NewCostModel(p, m13, 1)
	t := Table{
		ID:     "Figure 7",
		Title:  "Inference engine initialization breakdown (LLaMA-13B)",
		Header: []string{"stage", "unoptimized", "Aegaeon"},
	}
	rows := []struct {
		stage  string
		before time.Duration
		after  time.Duration
	}{
		{"Distributed executor init", p.DistExecInit, 0},
		{"Profiling & optimization", p.ProfileOpt, 0},
		{"Model weights loading", cm.NaiveLoad(), cm.Switch()},
		{"KV cache init (pinning)", p.KVInit, 0},
		{"Other components", p.MiscInit, 0},
	}
	var totB, totA time.Duration
	for _, r := range rows {
		totB += r.before
		totA += r.after
		t.Rows = append(t.Rows, []string{r.stage, fmtDur(r.before), fmtDur(r.after)})
	}
	t.Rows = append(t.Rows, []string{"TOTAL", fmtDur(totB), fmtDur(totA)})
	t.Notes = "paper: unoptimized ~26.9s total; naive loading achieves only 2.83 GB/s; optimized load is sub-second at TP>=2"
	return t
}

func fmtDur(d time.Duration) string { return d.Round(10 * time.Millisecond).String() }

// Figure8 measures the preemptive auto-scaling cost ladder T0 -> T3
// (Figs. 7, 8, 10): the exposed time from initiating a model switch to
// inference readiness, measured on a live engine for each optimization
// level, including the KV swap-out/in of a preempted batch on the T-ladder.
func Figure8(o Options) Table {
	type level struct {
		name string
		opts engine.Options
	}
	levels := []level{
		{"T0 (unoptimized)", engine.Unoptimized()},
		{"T1 (+component reuse)", engine.Options{ComponentReuse: true}},
		{"T2 (+explicit memory mgmt)", engine.Options{ComponentReuse: true, ExplicitMemory: true}},
		{"T3 (+prefetch & fine-grained sync)", engine.AllOptimizations()},
	}
	t := Table{
		ID:     "Figure 8/10",
		Title:  "Preemptive auto-scaling cost ladder (13B <-> 7B switch, incl. KV handling)",
		Header: []string{"level", "exposed switch cost", "reduction vs T0"},
	}
	var t0 float64
	for _, lv := range levels {
		cost := measureSwitch(o, lv.opts)
		if t0 == 0 {
			t0 = cost.Seconds()
		}
		red := 1 - cost.Seconds()/t0
		t.Rows = append(t.Rows, []string{lv.name, fmtDur(cost), fmtPct(red)})
	}
	t.Notes = "paper: full-stack optimizations remove up to 97% of auto-scaling latency (T0 tens of seconds -> T3 sub-second)"
	return t
}

// measureSwitch runs a minimal preemption cycle on one engine: model A
// decoding with a resident batch, preempt to model B (swapping the batch
// out), then measure the exposed time until B could start inference —
// with prefetch warmed as a steady-state rotation would have it.
func measureSwitch(o Options, opts engine.Options) time.Duration {
	se := sim.NewEngine(o.Seed)
	m13, _ := model.ByName("LLaMA-13B")
	m7, _ := model.ByName("Qwen-7B")
	cache := memory.NewModelCache(640 << 30)
	_ = cache.Insert(m13.Name, m13.WeightBytes())
	_ = cache.Insert(m7.Name, m7.WeightBytes())
	cpuKV := kvcache.NewCache("cpu", 320<<30, 64<<20, 16)
	e := engine.New(se, "gpu0", engine.Config{
		Prof:               o.Prof,
		TP:                 1,
		Opts:               opts,
		WeightsRegionBytes: 60 << 30,
		KVRegionBytes:      12 << 30,
		ModelCache:         cache,
		CPUKV:              cpuKV,
	}, nil)
	e.WarmBoot()
	id7, id13 := e.Models().Add(m7), e.Models().Add(m13)

	var exposed time.Duration
	e.SwitchTo(id7, func() {
		// A resident batch of 8 requests x 512 tokens for the current model.
		var seqs []*kvcache.Sequence
		for i := 0; i < 8; i++ {
			seq, err := e.KV().NewSequence(itoa(i), m7.KVShape(), 512)
			if err != nil {
				panic(err)
			}
			seqs = append(seqs, seq)
		}
		// Steady-state rotation: the next model was prefetched during the
		// running turn (a no-op unless opts.Prefetch).
		e.StartPrefetch(id13)
		se.After(4*time.Second, func() { // one QMAX turn elapses
			start := se.Now()
			// Preempt: swap the batch out and switch.
			for _, s := range seqs {
				if _, err := e.KV().SwapOut(s); err != nil {
					panic(err)
				}
			}
			if !opts.FineGrainedSync {
				// Blocking systems drain the offload first.
				last := seqs[len(seqs)-1].LastTransfer()
				last.OnComplete(func() {
					e.SwitchTo(id13, func() { exposed = se.Now() - start })
				})
				return
			}
			e.SwitchTo(id13, func() { exposed = se.Now() - start })
		})
	})
	se.Run()
	return exposed
}
