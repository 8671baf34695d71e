// Package model describes the LLMs served in the experiments: their weight
// footprints, transformer hyperparameters, and KV-cache geometry.
//
// The KV-cache shape convention follows Table 1 of the paper:
// (layers, 2, kv-heads, head-dim) per token, 16-bit elements. The package
// reproduces the paper's listed per-token sizes exactly (512 KB for Qwen-7B,
// 128 KB for InternLM2.5-7B-chat, 800 KB for LLaMA-13B, 2560 KB for Qwen-72B).
package model

import "fmt"

// KVShape is the per-token KV-cache geometry of a model: one K and one V
// vector per layer, split over KVHeads heads of HeadDim elements each.
type KVShape struct {
	Layers       int
	KVHeads      int
	HeadDim      int
	BytesPerElem int
}

// BytesPerToken returns the KV-cache bytes a single token occupies.
func (s KVShape) BytesPerToken() int64 {
	return int64(s.Layers) * 2 * int64(s.KVHeads) * int64(s.HeadDim) * int64(s.BytesPerElem)
}

// String renders the shape in the paper's (layers, 2, heads, dim) notation.
func (s KVShape) String() string {
	return fmt.Sprintf("(%d, 2, %d, %d)", s.Layers, s.KVHeads, s.HeadDim)
}

// Model is a static description of an LLM.
type Model struct {
	Name          string
	Params        int64 // parameter count
	BytesPerParam int   // 2 for FP16/BF16
	Layers        int
	Hidden        int // hidden size h
	FFN           int // FFN intermediate size m
	KVHeads       int // number of KV heads (GQA if < attention heads)
	HeadDim       int
}

// WeightBytes returns the total byte size of the model weights.
func (m *Model) WeightBytes() int64 { return m.Params * int64(m.BytesPerParam) }

// ShardWeightBytes returns the per-GPU weight bytes under tensor parallelism
// of degree tp. tp must be >= 1.
func (m *Model) ShardWeightBytes(tp int) int64 {
	if tp < 1 {
		panic("model: tensor parallel degree must be >= 1")
	}
	return m.WeightBytes() / int64(tp)
}

// KVShape returns the per-token KV cache shape of the full model.
func (m *Model) KVShape() KVShape {
	return KVShape{Layers: m.Layers, KVHeads: m.KVHeads, HeadDim: m.HeadDim, BytesPerElem: m.BytesPerParam}
}

// ShardKVShape returns the per-GPU KV shape under tensor parallelism: heads
// are partitioned across the tp GPUs.
func (m *Model) ShardKVShape(tp int) KVShape {
	s := m.KVShape()
	if tp < 1 {
		panic("model: tensor parallel degree must be >= 1")
	}
	heads := s.KVHeads / tp
	if heads == 0 {
		heads = 1
	}
	s.KVHeads = heads
	return s
}

func (m *Model) String() string { return m.Name }

const (
	billion = 1_000_000_000
	million = 1_000_000
)

// Catalog returns the models used across the paper's experiments, spanning
// 1.8B to 72B parameters, including the four whose KV shapes appear in
// Table 1. The slice is freshly allocated on every call.
func Catalog() []*Model {
	return []*Model{
		// Table 1 models.
		{Name: "Qwen-7B", Params: 7_720 * million, BytesPerParam: 2,
			Layers: 32, Hidden: 4096, FFN: 11008, KVHeads: 32, HeadDim: 128},
		{Name: "InternLM2.5-7B-chat", Params: 7_740 * million, BytesPerParam: 2,
			Layers: 32, Hidden: 4096, FFN: 14336, KVHeads: 8, HeadDim: 128},
		{Name: "LLaMA-13B", Params: 13_000 * million, BytesPerParam: 2,
			Layers: 40, Hidden: 5120, FFN: 13824, KVHeads: 40, HeadDim: 128},
		{Name: "Qwen-72B", Params: 72_700 * million, BytesPerParam: 2,
			Layers: 80, Hidden: 8192, FFN: 24576, KVHeads: 64, HeadDim: 128},
		// Additional market models (§7.1: families Qwen, Llama, InternLM, Yi;
		// sizes 1.8B to 72B; §7.5: 1.8–7B at TP=1 and 32–72B at TP=4).
		{Name: "Qwen-1.8B", Params: 1_840 * million, BytesPerParam: 2,
			Layers: 24, Hidden: 2048, FFN: 5504, KVHeads: 16, HeadDim: 128},
		{Name: "Yi-6B", Params: 6_060 * million, BytesPerParam: 2,
			Layers: 32, Hidden: 4096, FFN: 11008, KVHeads: 4, HeadDim: 128},
		{Name: "Llama-2-7B", Params: 6_740 * million, BytesPerParam: 2,
			Layers: 32, Hidden: 4096, FFN: 11008, KVHeads: 32, HeadDim: 128},
		{Name: "Yi-9B", Params: 8_830 * million, BytesPerParam: 2,
			Layers: 48, Hidden: 4096, FFN: 11008, KVHeads: 4, HeadDim: 128},
		{Name: "Qwen-14B", Params: 14_200 * million, BytesPerParam: 2,
			Layers: 40, Hidden: 5120, FFN: 13696, KVHeads: 40, HeadDim: 128},
		{Name: "Yi-34B", Params: 34_400 * million, BytesPerParam: 2,
			Layers: 60, Hidden: 7168, FFN: 20480, KVHeads: 8, HeadDim: 128},
		{Name: "Qwen-32B", Params: 32_500 * million, BytesPerParam: 2,
			Layers: 64, Hidden: 5120, FFN: 27392, KVHeads: 8, HeadDim: 128},
	}
}

// ByName returns the catalog model with the given name, or an error if no
// such model exists.
func ByName(name string) (*Model, error) {
	for _, m := range Catalog() {
		if m.Name == name {
			return m, nil
		}
	}
	return nil, fmt.Errorf("model: unknown model %q", name)
}

// MarketMix returns n model descriptors drawn round-robin from the 6–14B
// portion of the catalog (the paper's primary evaluation range), cloned and
// renamed so each represents a distinct market model (e.g. a fine-tune).
func MarketMix(n int) []*Model {
	base := []*Model{}
	for _, m := range Catalog() {
		if m.Params >= 6*billion && m.Params <= 15*billion {
			base = append(base, m)
		}
	}
	out := make([]*Model, n)
	for i := 0; i < n; i++ {
		src := base[i%len(base)]
		clone := *src
		clone.Name = fmt.Sprintf("%s-ft%03d", src.Name, i)
		out[i] = &clone
	}
	return out
}

// LargeMix returns n distinct 72B-class models for the TP=4 experiments
// (§7.4, Fig. 17 right).
func LargeMix(n int) []*Model {
	src, err := ByName("Qwen-72B")
	if err != nil {
		panic(err)
	}
	out := make([]*Model, n)
	for i := 0; i < n; i++ {
		clone := *src
		clone.Name = fmt.Sprintf("%s-ft%03d", src.Name, i)
		out[i] = &clone
	}
	return out
}

// SmallMix returns n models in the 6–7B range for the A10 experiments
// (§7.4, Fig. 17 left).
func SmallMix(n int) []*Model {
	base := []*Model{}
	for _, m := range Catalog() {
		if m.Params >= 6*billion && m.Params < 8*billion {
			base = append(base, m)
		}
	}
	out := make([]*Model, n)
	for i := 0; i < n; i++ {
		src := base[i%len(base)]
		clone := *src
		clone.Name = fmt.Sprintf("%s-ft%03d", src.Name, i)
		out[i] = &clone
	}
	return out
}

// DeploymentMix reproduces the production deployment population of §7.5:
// twenty-eight 1.8–7B models (TP=1) and nineteen 32–72B models (TP=4).
// It returns the models plus a parallel slice of TP degrees.
func DeploymentMix() (models []*Model, tps []int) {
	small := []string{"Qwen-1.8B", "Yi-6B", "Llama-2-7B", "Qwen-7B", "InternLM2.5-7B-chat"}
	large := []string{"Qwen-32B", "Yi-34B", "Qwen-72B"}
	for i := 0; i < 28; i++ {
		src, _ := ByName(small[i%len(small)])
		clone := *src
		clone.Name = fmt.Sprintf("%s-prod%02d", src.Name, i)
		models = append(models, &clone)
		tps = append(tps, 1)
	}
	for i := 0; i < 19; i++ {
		src, _ := ByName(large[i%len(large)])
		clone := *src
		clone.Name = fmt.Sprintf("%s-prod%02d", src.Name, i)
		models = append(models, &clone)
		tps = append(tps, 4)
	}
	return models, tps
}

// ID is a served model's dense index, assigned once per cluster by a
// Registry so the per-op, per-step and per-token observer paths index
// slices instead of hashing names. The zero ID names no model: ops that
// serve no model (KV transfers, plain Submit) carry it, and registered ids
// start at 1.
type ID int32

// NoID is the zero ID: no model.
const NoID ID = 0

// Registry assigns dense ids to served model names. Every system that
// shares observers must take its ids from one registry, so a cluster builds
// one across all of its deployments. A registry never writes into the
// *Model values it is given: callers may share them between systems.
// It is not safe for concurrent use; ids are assigned while a system is
// built, before the simulation runs.
type Registry struct {
	models []*Model // index id-1
	ids    map[string]ID
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{ids: map[string]ID{}} }

// Add returns m's id, assigning the next one if no model of that name is
// registered yet.
func (r *Registry) Add(m *Model) ID {
	if id, ok := r.ids[m.Name]; ok {
		return id
	}
	r.models = append(r.models, m)
	id := ID(len(r.models))
	r.ids[m.Name] = id
	return id
}

// Model returns the model registered under id (nil for NoID or an unknown
// id).
func (r *Registry) Model(id ID) *Model {
	if id <= 0 || int(id) > len(r.models) {
		return nil
	}
	return r.models[id-1]
}

// Len returns how many models are registered: their ids run 1 through Len.
func (r *Registry) Len() int { return len(r.models) }

// Grow returns s extended with zero values, if it must be, so that id
// indexes it. Per-model tables indexed by id make room for a new id with it.
func Grow[T any](s []T, id ID) []T {
	if n := int(id) + 1; n > len(s) {
		s = append(s, make([]T, n-len(s))...)
	}
	return s
}

// Names is an id-to-name table an observer keeps so its hot paths carry
// ids and only its exports resolve names. The zero value is empty.
type Names struct{ names []string }

// Set records name under id. Naming an id twice with one name is a no-op;
// two names for one id mean two registries feed one observer, a wiring bug,
// and panic.
func (n *Names) Set(id ID, name string) {
	if id <= 0 {
		panic(fmt.Sprintf("model: cannot name id %d", id))
	}
	n.names = Grow(n.names, id)
	if old := n.names[id]; old != "" && old != name {
		panic(fmt.Sprintf("model: id %d names both %q and %q", id, old, name))
	}
	n.names[id] = name
}

// Name returns the name recorded under id, or "" for NoID and unknown ids.
func (n *Names) Name(id ID) string {
	if id <= 0 || int(id) >= len(n.names) {
		return ""
	}
	return n.names[id]
}

// Clone returns an independent copy of the table.
func (n *Names) Clone() Names { return Names{names: append([]string(nil), n.names...)} }
