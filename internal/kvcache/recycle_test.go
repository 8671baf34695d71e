package kvcache

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"aegaeon/internal/gpu"
	"aegaeon/internal/latency"
	"aegaeon/internal/memory"
	"aegaeon/internal/model"
	"aegaeon/internal/sim"
)

// listID names a block list by its backing array, which is what recycling
// hands from one sequence to the next.
type listID = *memory.Block

func listOf(l []memory.Block) listID {
	if cap(l) == 0 {
		return nil
	}
	return unsafe.SliceData(l)
}

// recycleAudit follows every block list of one tier through a random walk:
// the lists it has seen a sequence hold, what each held last, and the peak
// number live at once.
type recycleAudit struct {
	cache    *Cache
	known    map[listID][]memory.Block // lists seen held, by last contents
	retired  map[listID]bool           // known lists on the spare stack
	peakLive int
}

func newRecycleAudit(c *Cache) *recycleAudit {
	return &recycleAudit{cache: c, known: map[listID][]memory.Block{}, retired: map[listID]bool{}}
}

// check audits the tier after one step, given the lists its sequences hold
// now.
func (a *recycleAudit) check(t *testing.T, step int, held [][]memory.Block) {
	t.Helper()
	owner := map[memory.Block]int{}
	for i, l := range held {
		for _, b := range l {
			if j, dup := owner[b]; dup {
				t.Fatalf("step %d %s: block %+v in lists %d and %d", step, a.cache.name, b, j, i)
			}
			owner[b] = i
		}
		if id := listOf(l); id != nil {
			a.known[id] = append(a.known[id][:0], l...)
		}
	}
	spare := map[listID]bool{}
	for _, l := range a.cache.spare {
		id := listOf(l)
		if spare[id] {
			t.Fatalf("step %d %s: list retired twice", step, a.cache.name)
		}
		spare[id] = true
		last, ok := a.known[id]
		if !ok {
			t.Fatalf("step %d %s: spare list was never live", step, a.cache.name)
		}
		if a.retired[id] {
			continue
		}
		// Newly retired this step, and no step both retires and allocates:
		// every block the list last held must be neither live nor blocked.
		for _, b := range last {
			if a.cache.pool.Free(b) == nil || a.cache.pool.Unblock(b) == nil {
				t.Fatalf("step %d %s: retired list still held block %+v", step, a.cache.name, b)
			}
		}
	}
	for _, l := range held {
		if spare[listOf(l)] {
			t.Fatalf("step %d %s: a held list is also on the spare stack", step, a.cache.name)
		}
	}
	a.retired = spare
	live := len(a.known) - len(spare)
	a.peakLive = max(a.peakLive, live)
	if len(spare) > a.peakLive {
		t.Fatalf("step %d %s: %d spare lists, peak live %d", step, a.cache.name, len(spare), a.peakLive)
	}
}

// drop forgets a list that growth replaced: it is garbage, not retired.
func (a *recycleAudit) drop(old, now []memory.Block) {
	if id := listOf(old); id != nil && id != listOf(now) {
		delete(a.known, id)
	}
}

// TestBlockListRecycling walks sequences through a seeded random mix of
// NewSequence, AppendTokens, SwapOut, SwapIn (some issued before their
// swap-out completes), Free and partial or full simulation runs, and checks
// after every step that no block sits in two lists, that each pool's used
// bytes match the live sequences, that no tier keeps more spare lists than
// it once had live, and that every retired list had all its blocks released.
func TestBlockListRecycling(t *testing.T) {
	for _, poll := range []time.Duration{0, time.Millisecond} {
		t.Run(fmt.Sprintf("poll=%v", poll), func(t *testing.T) {
			f := newFixture(t)
			managers := []*Manager{f.m1, f.m2}
			audits := map[*Cache]*recycleAudit{}
			for _, c := range []*Cache{f.m1.GPUCache, f.m2.GPUCache, f.cpu} {
				audits[c] = newRecycleAudit(c)
			}
			owner := func(s *Sequence) *Manager {
				for _, m := range managers {
					if m.GPUCache == s.gpuCache {
						return m
					}
				}
				t.Fatalf("sequence %s has no manager", s.ID)
				return nil
			}
			tolerate := func(err error) {
				if err != nil && !errors.Is(err, memory.ErrOutOfMemory) {
					t.Fatal(err)
				}
			}
			rng := rand.New(rand.NewSource(7))
			var seqs []*Sequence
			pick := func(states ...State) *Sequence {
				var c []*Sequence
				for _, s := range seqs {
					for _, st := range states {
						if s.state == st {
							c = append(c, s)
						}
					}
				}
				if len(c) == 0 {
					return nil
				}
				return c[rng.Intn(len(c))]
			}
			swaps := 0
			for step := 0; step < 200; step++ {
				m := managers[rng.Intn(2)]
				switch op := rng.Intn(8); op {
				case 0, 1:
					s, err := m.NewSequence(fmt.Sprint("r", step), f.mod.KVShape(), 1+rng.Intn(10*testBlkTok))
					tolerate(err)
					if s != nil {
						seqs = append(seqs, s)
					}
				case 2:
					if s := pick(StateGPU); s != nil {
						old := s.gpuBlocks
						tolerate(owner(s).AppendTokens(s, 1+rng.Intn(3*testBlkTok)))
						audits[s.gpuCache].drop(old, s.gpuBlocks)
					}
				case 3, 4:
					if s := pick(StateGPU); s != nil {
						_, err := owner(s).SwapOut(s)
						tolerate(err)
						if err == nil && op == 4 {
							// Swap straight back in, before the swap-out lands,
							// once the audit has seen the new CPU list.
							audit(t, step, f, audits, seqs, false)
							_, err = m.SwapIn(s)
							tolerate(err)
							swaps++
						}
					}
				case 5:
					if s := pick(StateCPU, StateSwappingOut); s != nil {
						_, err := m.SwapIn(s)
						tolerate(err)
					}
				case 6:
					if s := pick(StateGPU, StateSwappingOut, StateCPU, StateSwappingIn); s != nil {
						if err := owner(s).Free(s); err != nil {
							t.Fatal(err)
						}
					}
				case 7:
					if rng.Intn(4) == 0 {
						f.eng.Run()
					} else {
						f.eng.RunUntil(f.eng.Now() + sim.Time(rng.Intn(int(20*time.Millisecond))))
					}
				}
				audit(t, step, f, audits, seqs, f.eng.Pending() == 0)
			}
			for _, s := range seqs {
				if s.state != StateFreed {
					if err := owner(s).Free(s); err != nil {
						t.Fatal(err)
					}
				}
			}
			f.eng.Run()
			audit(t, 200, f, audits, seqs, true)
			for c := range audits {
				if u := c.pool.UsedBytes(); u != 0 {
					t.Errorf("%s: %d bytes in use after every sequence was freed", c.name, u)
				}
			}
			if swaps == 0 {
				t.Error("walk never swapped in before a swap-out completed")
			}
		})
	}
}

// audit runs every tier's recycling checks after one step. At quiescence
// every list is held by a sequence, so pool usage must equal theirs.
func audit(t *testing.T, step int, f *fixture, audits map[*Cache]*recycleAudit, seqs []*Sequence, quiet bool) {
	t.Helper()
	held := map[*Cache][][]memory.Block{}
	for _, s := range seqs {
		if len(s.gpuBlocks) > 0 {
			held[s.gpuCache] = append(held[s.gpuCache], s.gpuBlocks)
		}
		if len(s.cpuBlocks) > 0 {
			held[f.cpu] = append(held[f.cpu], s.cpuBlocks)
		}
	}
	for c, a := range audits {
		a.check(t, step, held[c])
		var want int64
		for _, l := range held[c] {
			want += int64(len(l)) * c.BlockBytes(l[0].Class)
		}
		if got := c.pool.UsedBytes(); got < want || (quiet && got != want) {
			t.Fatalf("step %d %s: pool uses %d bytes, live sequences hold %d", step, c.name, got, want)
		}
	}
}

// newSwapCycle returns one swap cycle of a sequence of tokens on a fresh
// manager: swap it out and back in and run the transfers, so each cycle
// allocates and frees both tiers' block lists, waits on the swap-out's
// event (rule ❷) and unblocks the move list (rule ❸). The sequence itself
// is allocated once, as a request's is.
func newSwapCycle(tb testing.TB, tokens int) func() {
	eng := sim.NewEngine(1)
	cpu := NewCache("cpu", 64<<30, 64<<20, 16)
	g := NewCache("gpu", 16<<30, 64<<20, 16)
	m := NewManager(gpu.NewDevice(eng, "gpu0"), latency.H800(), g, cpu)
	mod, err := model.ByName("Qwen-7B")
	if err != nil {
		tb.Fatal(err)
	}
	seq, err := m.NewSequence("r", mod.KVShape(), tokens)
	if err != nil {
		tb.Fatal(err)
	}
	return func() {
		if _, err := m.SwapOut(seq); err != nil {
			tb.Fatal(err)
		}
		if _, err := m.SwapIn(seq); err != nil {
			tb.Fatal(err)
		}
		eng.Run()
		if seq.State() != StateGPU || cpu.pool.UsedBytes() != 0 {
			tb.Fatalf("after a swap cycle the sequence is %s and the CPU tier holds %d bytes",
				seq.State(), cpu.pool.UsedBytes())
		}
	}
}

// A warmed swap cycle allocates nothing: its block lists come from the
// spare stacks, its events and completion records from free lists.
func TestSwapSteadyStateAllocs(t *testing.T) {
	for _, tokens := range []int{64, 4096} {
		cycle := newSwapCycle(t, tokens)
		cycle()
		if n := testing.AllocsPerRun(100, cycle); n != 0 {
			t.Errorf("swap cycle of %d tokens allocates %.1f times, want 0", tokens, n)
		}
	}
}

// Once warmed, a swap cycle's allocations do not depend on the sequence's
// length, in count or in bytes: its block lists come from the spare stacks.
func TestSwapCycleAllocsFlat(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 50
	type cost struct{ allocs, bytes uint64 }
	costs := map[int]cost{}
	for _, tokens := range []int{64, 4096} {
		cycle := newSwapCycle(t, tokens)
		cycle()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			cycle()
		}
		runtime.ReadMemStats(&after)
		costs[tokens] = cost{(after.Mallocs - before.Mallocs) / runs, (after.TotalAlloc - before.TotalAlloc) / runs}
	}
	if costs[64] != costs[4096] {
		t.Fatalf("swap cycle costs %+v at 64 tokens, %+v at 4096", costs[64], costs[4096])
	}
}
