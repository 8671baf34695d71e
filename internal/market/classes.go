// Package market models the spot GPU marketplace the paper's title serves
// on: heterogeneous device classes with per-class capability and price,
// spot-price traces, preemption (reclaim) notices with hard revocation
// deadlines, capability scoring with VRAM-headroom exclusion, and the risk
// model preemption-aware placement weighs against §5 switch cost.
//
// Like obs/fault/fleetobs, the package threads through the stack as an
// optional pointer: a nil *Market answers every query with "no market" —
// homogeneous devices, flat pricing, no risk — so the market-free paths stay
// byte-identical to a build without the package.
package market

import (
	"fmt"
	"strings"
	"time"

	"aegaeon/internal/latency"
)

// Class describes one marketplace device class: its hardware profile (which
// the cost model, KV pool geometry, and placement all consume) and its
// market behavior (price levels, volatility, reclaim hazard).
type Class struct {
	// Name is the class key used in specs and metrics labels.
	Name string
	// Prof is the latency profile instances of this class run on; its
	// VRAMBytes, PeakFLOPS, and PCIeBytesPS are what make the class
	// heterogeneous end to end.
	Prof *latency.Profile
	// OnDemandRate is the reliable reserved price in $/GPU-hour.
	OnDemandRate float64
	// SpotBase is the mean spot price in $/GPU-hour; price traces walk or
	// step around it.
	SpotBase float64
	// Volatility is the per-tick random-walk step as a fraction of SpotBase.
	Volatility float64
	// ReclaimMTBF is the class's mean time between spot reclaims — the
	// hazard the placement risk model discounts expected lifetime by.
	ReclaimMTBF time.Duration
}

// consumerProfile derives a consumer-tier profile from a datacenter base:
// scaled compute and HBM, desktop PCIe, and its own VRAM capacity.
func consumerProfile(base *latency.Profile, name string, computeMult, hbmMult, pcieBps float64, vram int64) *latency.Profile {
	p := *base
	p.Name = name
	p.VRAMBytes = vram
	p.PeakFLOPS *= computeMult
	p.HBMBytesPS *= hbmMult
	p.PCIeBytesPS = pcieBps
	return &p
}

// Built-in classes. Datacenter tiers reuse the Table 1 profiles; consumer
// tiers are derived from the A10 with desktop PCIe 4.0 x8 links. Prices are
// stylized marketplace levels (spot ≈ 1/3 of on-demand); MTBFs shrink down
// the reliability ladder.
func builtinClass(name string) (*Class, error) {
	switch strings.ToUpper(name) {
	case "H800", "H800-80GB":
		return &Class{
			Name: "H800", Prof: latency.H800(),
			OnDemandRate: 12.0, SpotBase: 4.2, Volatility: 0.08,
			ReclaimMTBF: 30 * time.Minute,
		}, nil
	case "H20", "H20-96GB":
		return &Class{
			Name: "H20", Prof: latency.H20(),
			OnDemandRate: 6.0, SpotBase: 2.1, Volatility: 0.10,
			ReclaimMTBF: 20 * time.Minute,
		}, nil
	case "A10", "A10-24GB":
		return &Class{
			Name: "A10", Prof: latency.A10(),
			OnDemandRate: 1.8, SpotBase: 0.62, Volatility: 0.15,
			ReclaimMTBF: 12 * time.Minute,
		}, nil
	case "RTX4090":
		return &Class{
			Name:         "RTX4090",
			Prof:         consumerProfile(latency.A10(), "RTX4090-24GB", 1.32, 1.68, 16e9, 24<<30),
			OnDemandRate: 0.9, SpotBase: 0.34, Volatility: 0.25,
			ReclaimMTBF: 7 * time.Minute,
		}, nil
	case "RTX3090":
		return &Class{
			Name:         "RTX3090",
			Prof:         consumerProfile(latency.A10(), "RTX3090-24GB", 0.57, 1.56, 16e9, 24<<30),
			OnDemandRate: 0.55, SpotBase: 0.22, Volatility: 0.30,
			ReclaimMTBF: 5 * time.Minute,
		}, nil
	}
	return nil, fmt.Errorf("market: unknown device class %q", name)
}

// ParseClasses resolves a comma-separated class list ("H800,A10,RTX4090")
// into class descriptors. Empty means a homogeneous H800 pool.
func ParseClasses(spec string) ([]*Class, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		spec = "H800"
	}
	var out []*Class
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		c, err := builtinClass(name)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("market: empty class list %q", spec)
	}
	return out, nil
}
