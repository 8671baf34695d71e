package gateway

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"aegaeon/internal/assemble"
	"aegaeon/internal/kvcache"
	"aegaeon/internal/model"
	"aegaeon/internal/overload"
	"aegaeon/internal/prefixcache"
	"aegaeon/internal/sim"
	"aegaeon/internal/slo"
	"aegaeon/internal/workload"
)

// TestProductionDefaultsPinned holds the overload and prefix-cache tuning
// every production entry point runs with, read back through the public
// surfaces: the gateway's /debug/overload retry budget, an overload
// controller stepped through a scripted signal sequence, and a prefix cache
// filled past both of its residency caps.
func TestProductionDefaultsPinned(t *testing.T) {
	t.Run("debug overload", func(t *testing.T) {
		gw, _ := newGateway(t, assemble.Spec{}, testCluster{ctl: overload.NewController()}, Options{Speedup: 50000})
		defer gw.Shutdown(context.Background())
		w := get(gw.Handler(), "/debug/overload")
		if w.Code != http.StatusOK {
			t.Fatalf("/debug/overload: status %d: %s", w.Code, w.Body.String())
		}
		var resp struct {
			Budget map[string]float64 `json:"retry_budget"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("decode: %v\n%s", err, w.Body.String())
		}
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"ttft target (s)", slo.Default().TTFT.Seconds(), 10},
			{"burst", resp.Budget["burst"], 32},
			{"ratio", resp.Budget["ratio"], 0.1},
		} {
			if c.got != c.want {
				t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
			}
		}
	})

	t.Run("controller holds", func(t *testing.T) {
		parts, err := assemble.Build(nil, assemble.Spec{Overload: true})
		if err != nil {
			t.Fatal(err)
		}
		ctl := parts.Overload
		page := overload.Signals{Page: true}
		calm := overload.Signals{}
		for i, s := range []struct {
			at   time.Duration
			sig  overload.Signals
			want overload.Level
		}{
			{0, page, overload.LevelShedLow}, // the first escalation is immediate
			{4999 * time.Millisecond, page, overload.LevelShedLow},
			{5 * time.Second, page, overload.LevelShrink},
			{9999 * time.Millisecond, page, overload.LevelShrink},
			{10 * time.Second, page, overload.LevelFreeze},
			{11 * time.Second, calm, overload.LevelFreeze}, // the clear streak starts
			{25999 * time.Millisecond, calm, overload.LevelFreeze},
			{26 * time.Second, calm, overload.LevelShrink},
			{40999 * time.Millisecond, calm, overload.LevelShrink},
			{41 * time.Second, calm, overload.LevelShedLow},
		} {
			if got := ctl.Step(sim.Time(s.at), s.sig); got != s.want {
				t.Fatalf("step %d at %v: level %v, want %v", i, s.at, got, s.want)
			}
			if s.want == overload.LevelShrink {
				if got := ctl.OutputCap(100); got != 75 {
					t.Fatalf("step %d: OutputCap(100) = %d at shrink, want 75", i, got)
				}
			}
		}
	})

	t.Run("prefix caps", func(t *testing.T) {
		// 2 KiB blocks; a 256 KiB host pool caps the host tier at a quarter
		// (32 blocks) and a 64 KiB device pool caps its tier at an eighth (4).
		shape := model.KVShape{Layers: 2, KVHeads: 2, HeadDim: 8, BytesPerElem: 2}
		const block = 16
		blockBytes := shape.BytesPerToken() * block
		c := prefixcache.New(prefixcache.Config{}, kvcache.NewCache("cpu", 256<<10, 16<<10, block))
		c.AttachDevice("p0", kvcache.NewCache("p0", 64<<10, 16<<10, block))
		chain := func(i int) []uint64 {
			segs := []workload.PromptSeg{{Seed: uint64(i + 1), Len: block}}
			return prefixcache.ChunkHashes(segs, 1, block)
		}
		for i := 0; i < 40; i++ {
			c.Insert("m", shape, chain(i), block, sim.Time(i))
		}
		if got, want := c.HostResidentBytes(), 32*blockBytes; got != want {
			t.Errorf("host residency %d B after 40 inserts, want the %d B cap", got, want)
		}
		for i := 8; i < 16; i++ {
			h := c.Acquire("p0", "m", shape, chain(i), block+1, sim.Time(100+i))
			if h == nil {
				t.Fatalf("chain %d: miss on a resident entry", i)
			}
			h.Release(sim.Time(100 + i))
		}
		if got, want := c.DeviceResidentBytes("p0"), 4*blockBytes; got != want {
			t.Errorf("device residency %d B after 8 promotions, want the %d B cap", got, want)
		}
	})
}
