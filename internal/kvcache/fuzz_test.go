package kvcache

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"aegaeon/internal/fault"
	"aegaeon/internal/fleetobs"
	"aegaeon/internal/memory"
	"aegaeon/internal/sim"
)

// FuzzSwapFaults drives two managers that share a CPU tier, with a fleet
// ledger on both GPUs, through a mix of NewSequence, SwapOut, SwapIn, Free
// and Abandon on up to 8 sequences while transfer-fault windows open on
// either instance. Each input byte triple is one step: an operation, a
// sequence slot and a parameter. After every drain the tiers, the transfer
// counters and the ledger must agree with the live sequences.
func FuzzSwapFaults(f *testing.F) {
	f.Add([]byte{})
	// A swap-out that retries through a window on gpu0, then a swap-in
	// that retries through a second one.
	f.Add([]byte{0, 0, 100, 5, 0, 200, 1, 0, 0, 7, 0, 0, 5, 0, 200, 2, 0, 0, 7, 0, 0})
	// A swap-in to the other GPU issued while the swap-out is still failing,
	// then a free while that swap-in retries.
	f.Add([]byte{0, 1, 60, 5, 0, 250, 1, 1, 0, 2, 1, 1, 5, 0, 1, 3, 1, 0, 7, 0, 0})
	// A free while a swap-in to the other GPU is in flight, no fault: the
	// GPU blocks are released when the copy lands.
	f.Add([]byte{0, 0, 40, 1, 0, 0, 2, 0, 1, 3, 0, 0, 7, 0, 0})
	// Abandon during a failing swap-out.
	f.Add([]byte{0, 2, 30, 5, 0, 120, 1, 2, 0, 6, 0, 3, 4, 2, 0, 7, 0, 0})
	f.Fuzz(checkSwapFaults)
}

func checkSwapFaults(t *testing.T, data []byte) {
	fx := newFixture(t)
	faults := fault.New(fx.eng, 1)
	ledger := fleetobs.New(fx.eng)
	mgrs := [2]*Manager{fx.m1, fx.m2}
	names := [2]string{"gpu0", "gpu1"}
	for i, m := range mgrs {
		ledger.ObserveDevice(fx.devs[i])
		m.SetFaults(faults, names[i], nil)
		m.SetFleet(ledger, names[i])
	}
	audits := map[*Cache]*recycleAudit{}
	for _, c := range []*Cache{fx.m1.GPUCache, fx.m2.GPUCache, fx.cpu} {
		audits[c] = newRecycleAudit(c)
	}
	// owner is the index of the manager whose GPU tier holds (or last
	// held) s.
	owner := func(s *Sequence) int {
		if s.gpuCache == fx.m1.GPUCache {
			return 0
		}
		return 1
	}
	tolerate := func(err error) bool {
		if err != nil && !errors.Is(err, memory.ErrOutOfMemory) {
			t.Fatal(err)
		}
		return err == nil
	}
	var slots [8]*Sequence
	var outs, ins [2]uint64
	held := func() []*Sequence {
		var seqs []*Sequence
		for _, s := range slots {
			if s != nil && s.state != StateFreed {
				seqs = append(seqs, s)
			}
		}
		return seqs
	}
	check := func(step int) {
		t.Helper()
		fx.eng.Run()
		seqs := held()
		for _, s := range seqs {
			if s.state != StateCPU && s.state != StateGPU {
				t.Fatalf("step %d: sequence %s is %v after the drain", step, s.ID, s.state)
			}
		}
		audit(t, step, fx, audits, seqs, true)
		snap := ledger.Snapshot(fx.eng.Now())
		for i, m := range mgrs {
			if n := m.GPUCache.Pool().BlockedBlocks(); n != 0 {
				t.Fatalf("step %d %s: %d blocked gpu blocks after the drain", step, names[i], n)
			}
			st := m.Stats()
			if st.SwapOuts != outs[i] || st.SwapIns != ins[i] {
				t.Fatalf("step %d %s: counted %d swap-outs and %d swap-ins, issued %d and %d",
					step, names[i], st.SwapOuts, st.SwapIns, outs[i], ins[i])
			}
			if got, want := snap.Devices[i].KVUsedBytes, m.GPUCache.Pool().UsedBytes(); got != want {
				t.Fatalf("step %d %s: ledger KV used %d B, gpu pool %d B", step, names[i], got, want)
			}
		}
		if n := fx.cpu.Pool().BlockedBlocks(); n != 0 {
			t.Fatalf("step %d: %d blocked cpu blocks after the drain", step, n)
		}
	}
	step := 0
	for ; len(data) >= 3; data, step = data[3:], step+1 {
		op, slot, p := data[0]%8, int(data[1]%8), data[2]
		dev := int(p & 1)
		s := slots[slot]
		live := s != nil && s.state != StateFreed
		switch op {
		case 0:
			if !live {
				ns, err := mgrs[dev].NewSequence(fmt.Sprint("r", step), fx.mod.KVShape(), 1+2*int(p))
				if tolerate(err) {
					slots[slot] = ns
				}
			}
		case 1:
			if live && s.state == StateGPU {
				o := owner(s)
				if _, err := mgrs[o].SwapOut(s); tolerate(err) {
					outs[o]++
				}
			}
		case 2:
			if live && (s.state == StateCPU || s.state == StateSwappingOut) {
				if _, err := mgrs[dev].SwapIn(s); tolerate(err) {
					ins[dev]++
				}
			}
		case 3:
			if live {
				if err := mgrs[owner(s)].Free(s); err != nil {
					t.Fatal(err)
				}
			}
		case 4:
			// Abandon where no GPU copy is dropped with it: a dropped copy
			// stays in its device's pool, which dies with the instance.
			if live && (s.state == StateCPU || s.state == StateSwappingOut) {
				s.Abandon()
			}
		case 5:
			faults.FailTransfers(names[dev], time.Duration(p)*time.Millisecond)
		case 6:
			fx.eng.RunUntil(fx.eng.Now() + sim.Time(p)*sim.Time(time.Millisecond/4))
		case 7:
			check(step)
			continue
		}
		audit(t, step, fx, audits, held(), false)
	}
	check(step)
}
