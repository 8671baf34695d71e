// Package latency implements the analytical performance models of
// Appendix A.2: token-generation latency for prefill and decoding steps
// (Eqs. 5 and 6) and model-switching latency (Eq. 4), parameterized by GPU
// hardware profiles.
//
// The coefficients C1..C5 of the paper are not free-floating here: they are
// derived from first principles (FLOP counts and byte movement) per
// (GPU, model) pair, then exposed via Coefficients so the Eq. 5/6 functional
// forms can be checked against the direct computation. The profiles are
// calibrated to the paper's anchor numbers: a 13B engine cold-initializes in
// ~26.9 s with naive loading at 2.83 GB/s (Fig. 7), an optimized 13B/TP2
// switch takes well under one second (§4.2), a prefill batch takes under one
// second, and a 7B decode step takes ~25 ms (§4.3's worked example).
package latency

import (
	"fmt"
	"time"

	"aegaeon/internal/model"
)

// Profile describes the performance-relevant characteristics of one GPU SKU
// plus the (un)optimized engine-initialization stage costs measured on it.
type Profile struct {
	Name string

	VRAMBytes int64 // device memory capacity

	// Compute and memory throughput with achievable-efficiency factors.
	PeakFLOPS  float64 // dense BF16 FLOP/s
	FLOPSEff   float64 // fraction of peak achieved by inference kernels
	HBMBytesPS float64 // device memory bandwidth, bytes/s
	HBMEff     float64 // achieved fraction during decode

	// Host link. Eq. 4: T_switch = ShardBytes / (PCIeBytesPS * PCIeBeta).
	PCIeBytesPS float64 // per-GPU host link bandwidth, bytes/s
	PCIeBeta    float64 // β, profiled PCIe efficiency (0.625 in the paper)

	// Naive engine weight loading (unoptimized vLLM path, Fig. 7): achieves
	// only NaiveLoadBPS regardless of link speed.
	NaiveLoadBPS float64

	// Naive engine (re)initialization stage durations (§5.1, Fig. 7).
	DistExecInit time.Duration // distributed executor (Ray/NCCL) startup
	ProfileOpt   time.Duration // profiling & optimization passes
	KVInit       time.Duration // pinning CPU memory for KV cache
	MiscInit     time.Duration // scheduler, logging, tokenizer, ...
	GCPause      time.Duration // garbage collection on scale-down (§5.2)

	// Fixed per-step engine overheads (scheduling, kernel launch, sampling).
	PrefillOverhead time.Duration
	DecodeOverhead  time.Duration

	// FlashAttention kernel block size b (Table 1 of Appendix A.2).
	FlashBlock int
}

// H800 returns the profile of the primary testbed GPU (§7.1: NVIDIA H800
// 80 GB, NVLink within the node, PCIe 4.0 to the host).
func H800() *Profile {
	return &Profile{
		Name:            "H800-80GB",
		VRAMBytes:       80 << 30,
		PeakFLOPS:       989e12,
		FLOPSEff:        0.50,
		HBMBytesPS:      3.35e12,
		HBMEff:          0.50,
		PCIeBytesPS:     32e9,
		PCIeBeta:        0.625,
		NaiveLoadBPS:    2.83e9,
		DistExecInit:    9500 * time.Millisecond,
		ProfileOpt:      3 * time.Second,
		KVInit:          4 * time.Second,
		MiscInit:        1200 * time.Millisecond,
		GCPause:         2500 * time.Millisecond,
		PrefillOverhead: 8 * time.Millisecond,
		DecodeOverhead:  6 * time.Millisecond,
		FlashBlock:      128,
	}
}

// A10 returns the lower-end GPU profile used in §7.4 (Fig. 17 left):
// 24 GB GDDR6, no room to prefetch a second model.
func A10() *Profile {
	return &Profile{
		Name:            "A10-24GB",
		VRAMBytes:       24 << 30,
		PeakFLOPS:       125e12,
		FLOPSEff:        0.45,
		HBMBytesPS:      600e9,
		HBMEff:          0.60,
		PCIeBytesPS:     32e9,
		PCIeBeta:        0.625,
		NaiveLoadBPS:    2.83e9,
		DistExecInit:    9500 * time.Millisecond,
		ProfileOpt:      3 * time.Second,
		KVInit:          3 * time.Second,
		MiscInit:        1200 * time.Millisecond,
		GCPause:         2 * time.Second,
		PrefillOverhead: 8 * time.Millisecond,
		DecodeOverhead:  6 * time.Millisecond,
		FlashBlock:      128,
	}
}

// H20 returns the production deployment GPU profile (§7.5): high memory
// bandwidth, modest compute.
func H20() *Profile {
	return &Profile{
		Name:            "H20-96GB",
		VRAMBytes:       96 << 30,
		PeakFLOPS:       148e12,
		FLOPSEff:        0.50,
		HBMBytesPS:      4.0e12,
		HBMEff:          0.50,
		PCIeBytesPS:     64e9, // PCIe 5.0
		PCIeBeta:        0.625,
		NaiveLoadBPS:    2.83e9,
		DistExecInit:    9500 * time.Millisecond,
		ProfileOpt:      3 * time.Second,
		KVInit:          4 * time.Second,
		MiscInit:        1200 * time.Millisecond,
		GCPause:         2500 * time.Millisecond,
		PrefillOverhead: 8 * time.Millisecond,
		DecodeOverhead:  6 * time.Millisecond,
		FlashBlock:      128,
	}
}

// ProfileByName looks up one of the built-in profiles.
func ProfileByName(name string) (*Profile, error) {
	switch name {
	case "H800", "H800-80GB":
		return H800(), nil
	case "A10", "A10-24GB":
		return A10(), nil
	case "H20", "H20-96GB":
		return H20(), nil
	}
	return nil, fmt.Errorf("latency: unknown GPU profile %q", name)
}

func (p *Profile) effFLOPS() float64 { return p.PeakFLOPS * p.FLOPSEff }
func (p *Profile) effHBM() float64   { return p.HBMBytesPS * p.HBMEff }

// CostModel predicts execution latencies for one model running on one GPU
// SKU under tensor parallelism tp. Build it with NewCostModel or Init and
// leave its fields, and the profile and model they point to, as they are: it
// caches Eq. 6's terms from them.
type CostModel struct {
	Prof  *Profile
	Model *model.Model
	TP    int

	// Eq. 6 as fixed + perToken·t: C4·(4h²+2hm) and C5·3·h, each computed
	// in the operation order of the uncached form, so every step time is
	// bit-identical to it. A decode step is priced per step, so this saves
	// recomputing both coefficients each time.
	decodeFixed, decodePerToken float64
}

// NewCostModel builds a cost model; tp must be >= 1.
func NewCostModel(p *Profile, m *model.Model, tp int) *CostModel {
	c := new(CostModel)
	c.Init(p, m, tp)
	return c
}

// Init builds a cost model in place, for tables that hold cost models by
// value; tp must be >= 1.
func (c *CostModel) Init(p *Profile, m *model.Model, tp int) {
	if tp < 1 {
		panic("latency: tensor parallel degree must be >= 1")
	}
	*c = CostModel{Prof: p, Model: m, TP: tp}
	h, mm := float64(m.Hidden), float64(m.FFN)
	c.decodeFixed = c.eq6C4() * (4*h*h + 2*h*mm)
	c.decodePerToken = c.eq6C5() * 3 * h
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// tpScale returns the aggregate throughput scale of the TP group: linear in
// TP with a 5%-per-doubling parallel-efficiency loss.
func (c *CostModel) tpScale() float64 {
	scale := 1.0
	for n := 1; n < c.TP; n *= 2 {
		scale *= 0.95
	}
	return float64(c.TP) * scale
}

// Prefill returns the execution time of a prefill batch whose requests have
// the given prompt lengths (Eq. 5). Aegaeon caps prefill batches at a single
// request (§4.2), but the general form supports baselines that batch.
func (c *CostModel) Prefill(promptLens ...int) time.Duration {
	if len(promptLens) == 0 {
		return 0
	}
	t, t2 := 0.0, 0.0
	for _, l := range promptLens {
		t += float64(l)
		t2 += float64(l) * float64(l)
	}
	m := c.Model
	h, mm := float64(m.Hidden), float64(m.FFN)
	lin := c.eq5C1() * (4*t*h*h + 2*t*h*mm)
	quad := c.eq5C2() * (3 * h * t2 / float64(c.Prof.FlashBlock))
	return secs(lin + quad + c.eq5C3())
}

// DecodeStep returns the execution time of one decoding step for a batch
// with the given total context length in tokens (Eq. 6: a constant
// weight-read term plus a term linear in context tokens).
func (c *CostModel) DecodeStep(contextTokens int64) time.Duration {
	return secs(c.decodeFixed + c.decodePerToken*float64(contextTokens))
}

// Eq. 5/6 coefficients, derived from first principles:
//
//	C1: 2 FLOPs per weight element per token, over L layers, divided by
//	    effective FLOPS (the 4h²+2hm factor counts per-layer weight elements).
//	C2: FlashAttention FLOPs 4·L·h·t², recast onto the 3ht²/b form.
//	C3: fixed prefill overhead.
//	C4: per-layer weight bytes read each step plus fixed decode overhead,
//	    normalized by (4h²+2hm).
//	C5: KV bytes read per context token, recast onto the 3ht form.
func (c *CostModel) eq5C1() float64 {
	return 2 * float64(c.Model.Layers) / (c.Prof.effFLOPS() * c.tpScale())
}

func (c *CostModel) eq5C2() float64 {
	L, b := float64(c.Model.Layers), float64(c.Prof.FlashBlock)
	return 4 * L * b / (3 * c.Prof.effFLOPS() * c.tpScale())
}

func (c *CostModel) eq5C3() float64 {
	return c.Prof.PrefillOverhead.Seconds()
}

func (c *CostModel) eq6C4() float64 {
	m := c.Model
	h, mm := float64(m.Hidden), float64(m.FFN)
	perLayer := 4*h*h + 2*h*mm
	weightRead := float64(m.Layers) * perLayer * float64(m.BytesPerParam) /
		(c.Prof.effHBM() * c.tpScale())
	return (weightRead + c.Prof.DecodeOverhead.Seconds()) / perLayer
}

func (c *CostModel) eq6C5() float64 {
	m := c.Model
	bytesPerTok := float64(m.KVShape().BytesPerToken())
	return bytesPerTok / (c.Prof.effHBM() * c.tpScale()) / (3 * float64(m.Hidden))
}

// Switch returns the optimized model-switch (weight-loading) latency of
// Eq. 4: per-GPU shard bytes over β-derated PCIe bandwidth. All TP shards
// load in parallel over their own links.
func (c *CostModel) Switch() time.Duration {
	bytes := float64(c.Model.ShardWeightBytes(c.TP))
	return secs(bytes / (c.Prof.PCIeBytesPS * c.Prof.PCIeBeta))
}

// NaiveLoad returns the unoptimized engine weight-loading time (Fig. 7:
// 2.83 GB/s achieved bandwidth).
func (c *CostModel) NaiveLoad() time.Duration {
	return secs(float64(c.Model.ShardWeightBytes(c.TP)) / c.Prof.NaiveLoadBPS)
}

// NaiveInit returns the total unoptimized engine (re)initialization time:
// distributed executor + profiling + naive weight load + KV-cache pinning +
// miscellaneous components (Fig. 7's 26.9 s for a 13B model).
func (c *CostModel) NaiveInit() time.Duration {
	p := c.Prof
	return p.DistExecInit + p.ProfileOpt + c.NaiveLoad() + p.KVInit + p.MiscInit
}

// OnDeviceCopy returns the time to move n bytes within VRAM (used when a
// prefetched model is compacted to the start of the buffer, §5.2).
func (c *CostModel) OnDeviceCopy(n int64) time.Duration {
	// Device-to-device copies read and write HBM.
	return secs(2 * float64(n) / c.Prof.HBMBytesPS)
}

// PCIeCopy returns the optimized host<->device transfer time for n bytes
// (stage-buffer pipelined path, β-derated).
func (p *Profile) PCIeCopy(n int64) time.Duration {
	return secs(float64(n) / (p.PCIeBytesPS * p.PCIeBeta))
}
