package kvcache

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"aegaeon/internal/gpu"
	"aegaeon/internal/latency"
	"aegaeon/internal/memory"
	"aegaeon/internal/model"
	"aegaeon/internal/sim"
)

const (
	testSlab   = 64 << 20 // 64 MiB slabs
	testBlkTok = 16
)

type fixture struct {
	eng *sim.Engine
	cpu *Cache
	m1  *Manager // "prefill" instance
	m2  *Manager // "decode" instance
	// devs are m1's and m2's devices.
	devs [2]*gpu.Device
	mod  *model.Model
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	eng := sim.NewEngine(1)
	cpu := NewCache("cpu", 4<<30, testSlab, testBlkTok)
	g1 := NewCache("gpu0", 1<<30, testSlab, testBlkTok)
	g2 := NewCache("gpu1", 1<<30, testSlab, testBlkTok)
	prof := latency.H800()
	d1 := gpu.NewDevice(eng, "gpu0")
	d2 := gpu.NewDevice(eng, "gpu1")
	mod, err := model.ByName("Qwen-7B")
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{
		eng:  eng,
		cpu:  cpu,
		m1:   NewManager(d1, prof, g1, cpu),
		m2:   NewManager(d2, prof, g2, cpu),
		devs: [2]*gpu.Device{d1, d2},
		mod:  mod,
	}
}

func TestNewSequenceAllocatesBlocks(t *testing.T) {
	f := newFixture(t)
	seq, err := f.m1.NewSequence("r1", f.mod.KVShape(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if seq.State() != StateGPU {
		t.Fatalf("state = %v, want gpu", seq.State())
	}
	wantBlocks := (100 + testBlkTok - 1) / testBlkTok
	if got := int64(wantBlocks) * f.m1.GPUCache.BlockBytes(seq.gpuClass); f.m1.GPUCache.Pool().UsedBytes() != got {
		t.Fatalf("gpu used = %d, want %d", f.m1.GPUCache.Pool().UsedBytes(), got)
	}
	if seq.Bytes() != f.mod.KVShape().BytesPerToken()*100 {
		t.Fatalf("seq bytes = %d", seq.Bytes())
	}
}

func TestAppendTokensGrowsBlocks(t *testing.T) {
	f := newFixture(t)
	seq, err := f.m1.NewSequence("r1", f.mod.KVShape(), testBlkTok)
	if err != nil {
		t.Fatal(err)
	}
	used := f.m1.GPUCache.Pool().UsedBytes()
	// Appending within the same block must not allocate... it can't: seq is
	// exactly full, so one more token needs a new block.
	if err := f.m1.AppendTokens(seq, 1); err != nil {
		t.Fatal(err)
	}
	if f.m1.GPUCache.Pool().UsedBytes() <= used {
		t.Fatal("append across block boundary did not allocate")
	}
	if seq.Tokens() != testBlkTok+1 {
		t.Fatalf("tokens = %d", seq.Tokens())
	}
}

// An append the tier cannot hold fails without touching the sequence: its
// existing blocks, its token count and the pool's statistics stay as they
// were, and a later append that fits extends the same block list.
func TestFailedAppendKeepsBlocks(t *testing.T) {
	eng := sim.NewEngine(1)
	cpu := NewCache("cpu", 4<<30, testSlab, testBlkTok)
	g := NewCache("gpu0", testSlab, testSlab, testBlkTok) // one slab
	m := NewManager(gpu.NewDevice(eng, "gpu0"), latency.H800(), g, cpu)
	mod, _ := model.ByName("Qwen-7B")
	seq, err := m.NewSequence("r1", mod.KVShape(), 3*testBlkTok)
	if err != nil {
		t.Fatal(err)
	}
	blocks := slices.Clone(seq.gpuBlocks)
	stats := g.Pool().Stats()
	if err := m.AppendTokens(seq, 1000*testBlkTok); !errors.Is(err, memory.ErrOutOfMemory) {
		t.Fatalf("oversized append = %v, want OOM", err)
	}
	if !slices.Equal(seq.gpuBlocks, blocks) || seq.Tokens() != 3*testBlkTok {
		t.Fatalf("failed append changed the sequence: %d blocks, %d tokens", len(seq.gpuBlocks), seq.Tokens())
	}
	if got := g.Pool().Stats(); !reflect.DeepEqual(got, stats) {
		t.Fatalf("failed append changed pool stats:\n got %+v\nwant %+v", got, stats)
	}
	if err := m.AppendTokens(seq, testBlkTok); err != nil {
		t.Fatal(err)
	}
	if len(seq.gpuBlocks) != 4 || !slices.Equal(seq.gpuBlocks[:3], blocks) {
		t.Fatalf("append after a failure did not extend the block list: %v", seq.gpuBlocks)
	}
}

// Decode appends extend a sequence's block list in place: with spare
// capacity in the list and warm pool free lists, 16 appends that each take a
// new block allocate nothing.
func TestAppendTokensAllocs(t *testing.T) {
	f := newFixture(t)
	seq, err := f.m1.NewSequence("r1", f.mod.KVShape(), testBlkTok)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.m1.AppendTokens(seq, 16*testBlkTok); err != nil {
		t.Fatal(err)
	}
	pool := f.m1.GPUCache.Pool()
	if n := testing.AllocsPerRun(100, func() {
		for _, b := range seq.gpuBlocks[1:] {
			if err := pool.Free(b); err != nil {
				t.Fatal(err)
			}
		}
		seq.gpuBlocks, seq.tokens = seq.gpuBlocks[:1], testBlkTok
		for i := 0; i < 16; i++ {
			if err := f.m1.AppendTokens(seq, testBlkTok); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Fatalf("16 appends allocate %.1f times, want 0", n)
	}
}

func TestAppendRequiresGPUResidency(t *testing.T) {
	f := newFixture(t)
	seq, _ := f.m1.NewSequence("r1", f.mod.KVShape(), 10)
	if _, err := f.m1.SwapOut(seq); err != nil {
		t.Fatal(err)
	}
	if err := f.m1.AppendTokens(seq, 1); err == nil {
		t.Error("append during swap-out returned nil error (rule ❶ violation)")
	}
}

func TestSwapOutMovesToCPU(t *testing.T) {
	f := newFixture(t)
	seq, _ := f.m1.NewSequence("r1", f.mod.KVShape(), 1000)
	ev, err := f.m1.SwapOut(seq)
	if err != nil {
		t.Fatal(err)
	}
	if seq.State() != StateSwappingOut {
		t.Fatalf("state during transfer = %v", seq.State())
	}
	f.eng.Run()
	if !ev.Query() || seq.State() != StateCPU {
		t.Fatalf("after run: done=%v state=%v", ev.Query(), seq.State())
	}
	if f.m1.GPUCache.Pool().UsedBytes() != 0 {
		t.Fatal("gpu blocks not released after swap-out")
	}
	if f.cpu.Pool().UsedBytes() == 0 {
		t.Fatal("no cpu blocks held after swap-out")
	}
	// Transfer time equals bytes over derated PCIe.
	want := latency.H800().PCIeCopy(seq.Bytes())
	if ev.CompletedAt() != want {
		t.Fatalf("swap-out finished at %v, want %v", ev.CompletedAt(), want)
	}
}

func TestSwapInWaitsForSwapOut(t *testing.T) {
	// The Fig. 10 scenario: decode instance swaps in a sequence that a
	// prefill instance is still offloading. Rule ❷ forces serialization.
	f := newFixture(t)
	seq, _ := f.m1.NewSequence("r1", f.mod.KVShape(), 1000)
	outEv, err := f.m1.SwapOut(seq)
	if err != nil {
		t.Fatal(err)
	}
	inEv, err := f.m2.SwapIn(seq) // immediately, while out is in flight
	if err != nil {
		t.Fatal(err)
	}
	f.eng.Run()
	if seq.State() != StateGPU {
		t.Fatalf("final state = %v, want gpu", seq.State())
	}
	per := latency.H800().PCIeCopy(seq.Bytes())
	if outEv.CompletedAt() != per {
		t.Fatalf("out at %v, want %v", outEv.CompletedAt(), per)
	}
	if inEv.CompletedAt() != 2*per {
		t.Fatalf("in at %v, want %v (must wait for out)", inEv.CompletedAt(), 2*per)
	}
	// The sequence now resides on gpu1's cache.
	if f.m2.GPUCache.Pool().UsedBytes() == 0 {
		t.Fatal("sequence not resident on destination GPU")
	}
	if f.m1.GPUCache.Pool().UsedBytes() != 0 {
		t.Fatal("source GPU still holds blocks")
	}
}

func TestSwapInFromWrongStateFails(t *testing.T) {
	f := newFixture(t)
	seq, _ := f.m1.NewSequence("r1", f.mod.KVShape(), 10)
	if _, err := f.m2.SwapIn(seq); err == nil {
		t.Error("swap-in of GPU-resident sequence returned nil error")
	}
}

func TestMoveListBlocksCPUReuse(t *testing.T) {
	// Rule ❸: CPU blocks freed by a swap-in must not be reallocated while
	// the read is in flight.
	f := newFixture(t)
	seq, _ := f.m1.NewSequence("r1", f.mod.KVShape(), 1000)
	if _, err := f.m1.SwapOut(seq); err != nil {
		t.Fatal(err)
	}
	f.eng.Run()
	cpuUsedBefore := f.cpu.Pool().UsedBytes()
	if _, err := f.m2.SwapIn(seq); err != nil {
		t.Fatal(err)
	}
	// Immediately after SwapIn the blocks are logically freed...
	if f.cpu.Pool().UsedBytes() != 0 {
		t.Fatalf("cpu used = %d after logical free, want 0", f.cpu.Pool().UsedBytes())
	}
	// ...but parked in the move list, not allocatable.
	if f.cpu.Pool().BlockedBlocks() == 0 {
		t.Fatal("move list empty during in-flight swap-in")
	}
	_ = cpuUsedBefore
	f.eng.Run()
	// The transfer's completion reclaimed everything.
	if n := f.cpu.Pool().BlockedBlocks(); n != 0 {
		t.Fatalf("move list not drained: %d blocks", n)
	}
}

func TestFreeOnGPU(t *testing.T) {
	f := newFixture(t)
	seq, _ := f.m1.NewSequence("r1", f.mod.KVShape(), 100)
	if err := f.m1.Free(seq); err != nil {
		t.Fatal(err)
	}
	if f.m1.GPUCache.Pool().UsedBytes() != 0 {
		t.Fatal("gpu blocks leaked after free")
	}
	if err := f.m1.Free(seq); err == nil {
		t.Error("double free of sequence returned nil error")
	}
}

func TestFreeDuringSwapOutDefersCPURelease(t *testing.T) {
	f := newFixture(t)
	seq, _ := f.m1.NewSequence("r1", f.mod.KVShape(), 1000)
	if _, err := f.m1.SwapOut(seq); err != nil {
		t.Fatal(err)
	}
	if err := f.m1.Free(seq); err != nil {
		t.Fatal(err)
	}
	if f.cpu.Pool().BlockedBlocks() == 0 {
		t.Fatal("freed-during-swap-out blocks not in move list")
	}
	f.eng.Run()
	if f.cpu.Pool().BlockedBlocks() != 0 || f.cpu.Pool().UsedBytes() != 0 {
		t.Fatal("blocks not reclaimed after aborted request's transfer")
	}
}

func TestOOMOnTinyGPUCache(t *testing.T) {
	eng := sim.NewEngine(1)
	cpu := NewCache("cpu", 4<<30, testSlab, testBlkTok)
	g := NewCache("gpu0", testSlab, testSlab, testBlkTok) // one slab only
	m := NewManager(gpu.NewDevice(eng, "gpu0"), latency.H800(), g, cpu)
	mod, _ := model.ByName("Qwen-72B") // 2560 KB/token -> 40 MiB blocks
	seq, err := m.NewSequence("r1", mod.KVShape(), 16)
	if err != nil {
		t.Fatal(err)
	}
	// One block used out of one slab (64MiB/40MiB = 1 block per slab).
	if _, err := m.NewSequence("r2", mod.KVShape(), 16); !errors.Is(err, memory.ErrOutOfMemory) {
		t.Fatalf("expected OOM, got %v", err)
	}
	_ = seq
}

func TestStatsAccumulate(t *testing.T) {
	f := newFixture(t)
	seq, _ := f.m1.NewSequence("r1", f.mod.KVShape(), 1000)
	if _, err := f.m1.SwapOut(seq); err != nil {
		t.Fatal(err)
	}
	f.eng.Run()
	if _, err := f.m2.SwapIn(seq); err != nil {
		t.Fatal(err)
	}
	f.eng.Run()
	s1, s2 := f.m1.Stats(), f.m2.Stats()
	if s1.SwapOuts != 1 || s1.BytesOut != seq.Bytes() {
		t.Errorf("m1 stats = %+v", s1)
	}
	if s2.SwapIns != 1 || s2.BytesIn != seq.Bytes() {
		t.Errorf("m2 stats = %+v", s2)
	}
	if s1.ControlOps == 0 || s1.ControlTime == 0 {
		t.Error("control overhead not accounted")
	}
}

func TestSharedShapesShareClass(t *testing.T) {
	f := newFixture(t)
	qwen, _ := model.ByName("Qwen-7B")
	llama, _ := model.ByName("Llama-2-7B") // same (32,2,32,128) shape
	s1, err := f.m1.NewSequence("a", qwen.KVShape(), 10)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := f.m1.NewSequence("b", llama.KVShape(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if s1.gpuClass != s2.gpuClass || s1.cpuClass != s2.cpuClass {
		t.Errorf("identical shapes got classes %d/%d and %d/%d",
			s1.gpuClass, s1.cpuClass, s2.gpuClass, s2.cpuClass)
	}
}

func TestMaxTokensAndFreeTokens(t *testing.T) {
	f := newFixture(t)
	class, err := f.m1.GPUCache.RegisterShape(f.mod.KVShape())
	if err != nil {
		t.Fatal(err)
	}
	max := f.m1.GPUCache.MaxTokens(class)
	if max <= 0 {
		t.Fatalf("MaxTokens = %d", max)
	}
	free := f.m1.GPUCache.FreeTokensAvailable(class)
	if free != max {
		t.Fatalf("empty cache free tokens = %d, want %d", free, max)
	}
	if _, err := f.m1.NewSequence("r", f.mod.KVShape(), int(max/2)); err != nil {
		t.Fatal(err)
	}
	if got := f.m1.GPUCache.FreeTokensAvailable(class); got >= free {
		t.Fatalf("free tokens did not shrink: %d", got)
	}
}

// Chain of custody: out -> in -> out -> in across two instances, with every
// transfer waiting on the previous (repeated preemption of one request).
func TestRepeatedMigration(t *testing.T) {
	f := newFixture(t)
	seq, _ := f.m1.NewSequence("r1", f.mod.KVShape(), 500)
	if _, err := f.m1.SwapOut(seq); err != nil {
		t.Fatal(err)
	}
	if _, err := f.m2.SwapIn(seq); err != nil {
		t.Fatal(err)
	}
	f.eng.Run()
	if _, err := f.m2.SwapOut(seq); err != nil {
		t.Fatal(err)
	}
	if _, err := f.m1.SwapIn(seq); err != nil {
		t.Fatal(err)
	}
	f.eng.Run()
	if seq.State() != StateGPU {
		t.Fatalf("final state %v", seq.State())
	}
	if f.m1.GPUCache.Pool().UsedBytes() == 0 {
		t.Fatal("sequence not back on gpu0")
	}
	if f.m2.GPUCache.Pool().UsedBytes() != 0 {
		t.Fatal("gpu1 leaked blocks")
	}
	if f.cpu.Pool().UsedBytes() != 0 {
		t.Fatal("cpu cache leaked blocks")
	}
	if err := f.m1.Free(seq); err != nil {
		t.Fatal(err)
	}
	if f.m1.GPUCache.Pool().UsedBytes() != 0 {
		t.Fatal("blocks leaked after final free")
	}
}

func TestAbandonReleasesCPUOnly(t *testing.T) {
	f := newFixture(t)
	seq, _ := f.m1.NewSequence("r1", f.mod.KVShape(), 500)
	if _, err := f.m1.SwapOut(seq); err != nil {
		t.Fatal(err)
	}
	f.eng.Run() // swap-out completes; CPU holds the only copy
	if !seq.SurvivesHostOnly() {
		t.Fatal("CPU-resident sequence not host-survivable")
	}
	seq.Abandon()
	if seq.State() != StateFreed {
		t.Fatalf("state after abandon = %v", seq.State())
	}
	if f.cpu.Pool().UsedBytes() != 0 {
		t.Fatal("abandon leaked CPU blocks")
	}
}

func TestSurvivesHostOnlyStates(t *testing.T) {
	f := newFixture(t)
	seq, _ := f.m1.NewSequence("r1", f.mod.KVShape(), 100)
	if seq.SurvivesHostOnly() {
		t.Fatal("GPU-resident sequence claimed host-survivable")
	}
	if _, err := f.m1.SwapOut(seq); err != nil {
		t.Fatal(err)
	}
	// Mid-transfer: the CPU copy is incomplete.
	if seq.SurvivesHostOnly() {
		t.Fatal("mid-swap-out sequence claimed host-survivable")
	}
}

func TestSwapOutCPUOOM(t *testing.T) {
	eng := sim.NewEngine(1)
	cpu := NewCache("cpu", testSlab, testSlab, testBlkTok) // one slab
	g := NewCache("gpu0", 1<<30, testSlab, testBlkTok)
	m := NewManager(gpu.NewDevice(eng, "gpu0"), latency.H800(), g, cpu)
	mod, _ := model.ByName("Qwen-7B") // 8 MiB blocks -> 8 per slab
	seq, err := m.NewSequence("big", mod.KVShape(), 16*testBlkTok)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.SwapOut(seq); !errors.Is(err, memory.ErrOutOfMemory) {
		t.Fatalf("swap-out into tiny CPU cache = %v, want OOM", err)
	}
	// The sequence must remain intact on the GPU after the failed swap-out.
	if seq.State() != StateGPU {
		t.Fatalf("state after failed swap-out = %v", seq.State())
	}
	if err := m.AppendTokens(seq, 1); err != nil {
		t.Fatalf("sequence unusable after failed swap-out: %v", err)
	}
}

func TestFreeDuringSwapIn(t *testing.T) {
	f := newFixture(t)
	seq, _ := f.m1.NewSequence("r1", f.mod.KVShape(), 300)
	if _, err := f.m1.SwapOut(seq); err != nil {
		t.Fatal(err)
	}
	f.eng.Run()
	if _, err := f.m2.SwapIn(seq); err != nil {
		t.Fatal(err)
	}
	// Abort mid-swap-in: GPU target blocks release once the write lands.
	if err := f.m2.Free(seq); err != nil {
		t.Fatal(err)
	}
	f.eng.Run()
	if f.m2.GPUCache.Pool().UsedBytes() != 0 {
		t.Fatal("GPU blocks leaked after free-during-swap-in")
	}
	if f.cpu.Pool().UsedBytes() != 0 {
		t.Fatal("CPU blocks leaked after free-during-swap-in")
	}
}

func TestCacheAllocPrecheckFailsFast(t *testing.T) {
	eng := sim.NewEngine(1)
	cpu := NewCache("cpu", 4<<30, testSlab, testBlkTok)
	g := NewCache("gpu0", testSlab, testSlab, testBlkTok) // 8 blocks of Qwen-7B
	m := NewManager(gpu.NewDevice(eng, "gpu0"), latency.H800(), g, cpu)
	mod, _ := model.ByName("Qwen-7B")
	// Request far beyond capacity: must fail without leaving partial state.
	if _, err := m.NewSequence("huge", mod.KVShape(), 1000*testBlkTok); !errors.Is(err, memory.ErrOutOfMemory) {
		t.Fatalf("oversized NewSequence = %v, want OOM", err)
	}
	if g.Pool().UsedBytes() != 0 {
		t.Fatal("failed alloc left blocks behind")
	}
}

func TestStateStrings(t *testing.T) {
	for st, want := range map[State]string{
		StateGPU: "gpu", StateSwappingOut: "swapping-out", StateCPU: "cpu",
		StateSwappingIn: "swapping-in", StateFreed: "freed",
	} {
		if st.String() != want {
			t.Errorf("State(%d).String() = %q, want %q", st, st.String(), want)
		}
	}
}

// RegisterShape answers a known shape from its memo: the class is labeled
// with the shape's String form, repeat calls allocate nothing, and a shape
// that failed to register fails again.
func TestRegisterShapeMemo(t *testing.T) {
	c := NewCache("gpu", 64<<20, 16<<20, 16)
	shape := model.KVShape{Layers: 28, KVHeads: 4, HeadDim: 128, BytesPerElem: 2}
	id, err := c.RegisterShape(shape)
	if err != nil {
		t.Fatal(err)
	}
	if label := c.Pool().Label(id); label != shape.String() {
		t.Fatalf("label = %q, want %q", label, shape.String())
	}
	if n := testing.AllocsPerRun(100, func() {
		if got, _ := c.RegisterShape(shape); got != id {
			t.Fatalf("memoized class = %d, want %d", got, id)
		}
	}); n != 0 {
		t.Fatalf("repeat RegisterShape allocates %.1f times, want 0", n)
	}
	// Same label, different element width: the pool refuses the size clash
	// every time rather than the memo answering with the first shape's class.
	wide := shape
	wide.BytesPerElem = 4
	for i := 0; i < 2; i++ {
		if _, err := c.RegisterShape(wide); err == nil {
			t.Fatalf("call %d: clashing shape registered", i)
		}
	}
}
