package model

import (
	"strings"
	"testing"
	"testing/quick"
)

// TestTable1 verifies the KV-cache shapes and per-token sizes the paper
// lists in Table 1, to the byte.
func TestTable1(t *testing.T) {
	cases := []struct {
		name      string
		shape     string
		wantBytes int64
	}{
		{"Qwen-7B", "(32, 2, 32, 128)", 512 * 1024},
		{"InternLM2.5-7B-chat", "(32, 2, 8, 128)", 128 * 1024},
		{"LLaMA-13B", "(40, 2, 40, 128)", 800 * 1024},
		{"Qwen-72B", "(80, 2, 64, 128)", 2560 * 1024},
	}
	for _, c := range cases {
		m, err := ByName(c.name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", c.name, err)
		}
		if got := m.KVShape().String(); got != c.shape {
			t.Errorf("%s shape = %s, want %s", c.name, got, c.shape)
		}
		if got := m.KVShape().BytesPerToken(); got != c.wantBytes {
			t.Errorf("%s bytes/token = %d, want %d", c.name, got, c.wantBytes)
		}
	}
}

func TestWeightBytes(t *testing.T) {
	m, err := ByName("LLaMA-13B")
	if err != nil {
		t.Fatal(err)
	}
	// 13B params in BF16 is 26 GB — the figure used throughout §4.2 and §5.1.
	if got := m.WeightBytes(); got != 26_000_000_000 {
		t.Errorf("LLaMA-13B weight bytes = %d, want 26e9", got)
	}
}

func TestShardWeightBytes(t *testing.T) {
	m, _ := ByName("Qwen-72B")
	if got, want := m.ShardWeightBytes(4), m.WeightBytes()/4; got != want {
		t.Errorf("ShardWeightBytes(4) = %d, want %d", got, want)
	}
	if got := m.ShardWeightBytes(1); got != m.WeightBytes() {
		t.Errorf("ShardWeightBytes(1) = %d, want %d", got, m.WeightBytes())
	}
}

func TestShardWeightBytesPanicsOnZeroTP(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ShardWeightBytes(0) did not panic")
		}
	}()
	m, _ := ByName("Qwen-7B")
	m.ShardWeightBytes(0)
}

func TestShardKVShape(t *testing.T) {
	m, _ := ByName("Qwen-72B")
	s := m.ShardKVShape(4)
	if s.KVHeads != 16 {
		t.Errorf("TP=4 shard KV heads = %d, want 16", s.KVHeads)
	}
	if got, want := s.BytesPerToken(), m.KVShape().BytesPerToken()/4; got != want {
		t.Errorf("shard bytes/token = %d, want %d", got, want)
	}
	// GQA model with fewer heads than TP keeps at least one head (replicated).
	y, _ := ByName("Yi-6B")
	if got := y.ShardKVShape(8).KVHeads; got != 1 {
		t.Errorf("Yi-6B TP=8 shard heads = %d, want 1", got)
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("GPT-5"); err == nil {
		t.Error("ByName on unknown model returned nil error")
	}
}

func TestCatalogSane(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range Catalog() {
		if seen[m.Name] {
			t.Errorf("duplicate catalog model %q", m.Name)
		}
		seen[m.Name] = true
		if m.Params <= 0 || m.Layers <= 0 || m.Hidden <= 0 || m.FFN <= 0 ||
			m.KVHeads <= 0 || m.HeadDim <= 0 || m.BytesPerParam <= 0 {
			t.Errorf("catalog model %q has non-positive field: %+v", m.Name, m)
		}
		if m.FFN <= m.Hidden {
			t.Errorf("catalog model %q: FFN %d should exceed hidden %d", m.Name, m.FFN, m.Hidden)
		}
	}
}

func TestMarketMix(t *testing.T) {
	ms := MarketMix(40)
	if len(ms) != 40 {
		t.Fatalf("MarketMix(40) returned %d models", len(ms))
	}
	names := map[string]bool{}
	for _, m := range ms {
		if names[m.Name] {
			t.Errorf("duplicate market model name %q", m.Name)
		}
		names[m.Name] = true
		gb := float64(m.WeightBytes()) / 1e9
		if gb < 12 || gb > 30 {
			t.Errorf("market model %q weights %.1f GB outside 6–14B FP16 range", m.Name, gb)
		}
	}
}

func TestSmallAndLargeMix(t *testing.T) {
	for _, m := range SmallMix(10) {
		if m.Params >= 8*billion {
			t.Errorf("SmallMix model %q has %d params", m.Name, m.Params)
		}
	}
	for _, m := range LargeMix(4) {
		if m.Params < 70*billion {
			t.Errorf("LargeMix model %q has %d params", m.Name, m.Params)
		}
	}
}

func TestDeploymentMix(t *testing.T) {
	models, tps := DeploymentMix()
	if len(models) != 47 || len(tps) != 47 {
		t.Fatalf("DeploymentMix sizes = %d/%d, want 47/47", len(models), len(tps))
	}
	small, large := 0, 0
	for i, m := range models {
		switch tps[i] {
		case 1:
			small++
			if m.Params > 8*billion {
				t.Errorf("TP=1 model %q too large (%d params)", m.Name, m.Params)
			}
		case 4:
			large++
			if m.Params < 30*billion {
				t.Errorf("TP=4 model %q too small (%d params)", m.Name, m.Params)
			}
		default:
			t.Errorf("unexpected TP %d", tps[i])
		}
	}
	if small != 28 || large != 19 {
		t.Errorf("mix = %d small + %d large, want 28 + 19 (§7.5)", small, large)
	}
}

// Property: per-token KV bytes scale linearly in each shape dimension.
func TestKVShapeLinearity(t *testing.T) {
	prop := func(layers, heads, dim uint8) bool {
		l, h, d := int(layers%64)+1, int(heads%64)+1, int(dim)+1
		s := KVShape{Layers: l, KVHeads: h, HeadDim: d, BytesPerElem: 2}
		d2 := KVShape{Layers: 2 * l, KVHeads: h, HeadDim: d, BytesPerElem: 2}
		return d2.BytesPerToken() == 2*s.BytesPerToken() &&
			s.BytesPerToken() == int64(l)*2*int64(h)*int64(d)*2
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKVShapeString(t *testing.T) {
	s := KVShape{Layers: 40, KVHeads: 40, HeadDim: 128, BytesPerElem: 2}
	if got := s.String(); !strings.HasPrefix(got, "(40, 2, 40, 128") {
		t.Errorf("shape string = %q", got)
	}
}

func TestRegistryAndNames(t *testing.T) {
	ms := MarketMix(3)
	r := NewRegistry()
	for i, m := range ms {
		if id := r.Add(m); id != ID(i+1) {
			t.Fatalf("Add(%s) = %d, want %d", m.Name, id, i+1)
		}
	}
	if id := r.Add(ms[1]); id != 2 {
		t.Fatalf("re-adding %s gave id %d, want 2", ms[1].Name, id)
	}
	if r.Model(NoID) != nil || r.Model(4) != nil || r.Model(3) != ms[2] {
		t.Fatal("Model resolves NoID, an unknown id, or the wrong model")
	}

	var n Names
	n.Set(2, ms[1].Name)
	n.Set(2, ms[1].Name) // same name again: no-op
	if n.Name(2) != ms[1].Name || n.Name(1) != "" || n.Name(NoID) != "" || n.Name(9) != "" {
		t.Fatal("Names resolves the wrong names")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("naming one id with two names did not panic")
		}
	}()
	n.Set(2, ms[0].Name)
}
