package kvcache

import (
	"testing"
	"time"

	"aegaeon/internal/fault"
	"aegaeon/internal/fleetobs"
	"aegaeon/internal/latency"
)

// A swap-out submitted inside a transfer-fault window must occupy the bus,
// fail, and resubmit with backoff until an attempt lands outside the window.
// GPU source blocks are released exactly once, by the successful attempt.
func TestSwapOutRetriesThroughFaultWindow(t *testing.T) {
	f := newFixture(t)
	fts := fault.New(f.eng, 3)
	f.m1.SetFaults(fts, "gpu0", nil)

	seq, err := f.m1.NewSequence("r1", f.mod.KVShape(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	copyDur := latency.H800().PCIeCopy(seq.Bytes())
	// The first attempt (submitted at t=0) fails; the retry fires at
	// copy+backoff (>= copy+40ms), past the window, and succeeds.
	fts.FailTransfers("gpu0", copyDur+10*time.Millisecond)

	if _, err := f.m1.SwapOut(seq); err != nil {
		t.Fatal(err)
	}
	f.eng.Run()

	if seq.State() != StateCPU {
		t.Fatalf("state after retries = %v, want cpu", seq.State())
	}
	if f.m1.GPUCache.Pool().UsedBytes() != 0 {
		t.Fatal("gpu blocks leaked across retried swap-out")
	}
	if f.cpu.Pool().UsedBytes() == 0 {
		t.Fatal("cpu copy missing after retried swap-out")
	}
	st := fts.Snapshot()
	if st.TransferFailures == 0 || st.TransferRetries == 0 {
		t.Fatalf("no transfer retries recorded: %+v", st)
	}
	if f.m1.Stats().SwapOuts != 1 {
		t.Fatalf("SwapOuts = %d, want 1 (retries must not re-count)", f.m1.Stats().SwapOuts)
	}
	// The retried transfer took at least two full copies plus the backoff.
	if f.eng.Now() < 2*copyDur {
		t.Fatalf("retried swap-out finished at %v, want >= %v", f.eng.Now(), 2*copyDur)
	}
}

// A swap-in retry must not park the CPU source blocks until an attempt
// succeeds: the data is still needed. After recovery the move list drains
// and the CPU tier returns to empty — nothing leaks.
func TestSwapInRetriesWithoutLeakingCPU(t *testing.T) {
	f := newFixture(t)
	fts := fault.New(f.eng, 3)
	f.m1.SetFaults(fts, "gpu0", nil)

	seq, err := f.m1.NewSequence("r1", f.mod.KVShape(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.m1.SwapOut(seq); err != nil {
		t.Fatal(err)
	}
	f.eng.Run()
	if seq.State() != StateCPU {
		t.Fatalf("setup: state = %v", seq.State())
	}
	cpuHeld := f.cpu.Pool().UsedBytes()
	if cpuHeld == 0 {
		t.Fatal("setup: no cpu bytes held")
	}

	copyDur := latency.H800().PCIeCopy(seq.Bytes())
	fts.FailTransfers("gpu0", copyDur+10*time.Millisecond)
	if _, err := f.m1.SwapIn(seq); err != nil {
		t.Fatal(err)
	}
	// While the first attempt is in flight (and doomed), the CPU source
	// blocks must remain fully held — not parked, not freed.
	if got := f.cpu.Pool().UsedBytes(); got != cpuHeld {
		t.Fatalf("cpu bytes during failing swap-in = %d, want %d", got, cpuHeld)
	}
	f.eng.Run()

	if seq.State() != StateGPU {
		t.Fatalf("state after retries = %v, want gpu", seq.State())
	}
	if f.m1.GPUCache.Pool().UsedBytes() == 0 {
		t.Fatal("no gpu blocks held after retried swap-in")
	}
	if f.cpu.Pool().UsedBytes() != 0 {
		t.Fatal("cpu blocks leaked after retried swap-in")
	}
	if n := f.cpu.Pool().BlockedBlocks(); n != 0 {
		t.Fatalf("move list not drained: %d blocks", n)
	}
	st := fts.Snapshot()
	if st.TransferFailures == 0 || st.TransferRetries != st.TransferFailures {
		t.Fatalf("retry accounting off: %+v", st)
	}
}

// With no fault state attached (nil *Faults) the retry machinery must be
// invisible: timing identical to the fault-free build.
func TestNilFaultsKeepsTimingIdentical(t *testing.T) {
	f := newFixture(t)
	seq, _ := f.m1.NewSequence("r1", f.mod.KVShape(), 1000)
	ev, err := f.m1.SwapOut(seq)
	if err != nil {
		t.Fatal(err)
	}
	f.eng.Run()
	if want := latency.H800().PCIeCopy(seq.Bytes()); ev.CompletedAt() != want {
		t.Fatalf("nil-faults swap-out at %v, want %v", ev.CompletedAt(), want)
	}
}

// A transfer that retried through a fault window samples the fleet ledger
// when it lands, as a clean one does: afterwards the ledger's GPU KV usage
// is the pool's, for a swap-out and for a swap-in.
func TestRetriedTransferSamplesFleetKV(t *testing.T) {
	f := newFixture(t)
	fts := fault.New(f.eng, 3)
	ledger := fleetobs.New(f.eng)
	ledger.ObserveDevice(f.devs[0])
	f.m1.SetFaults(fts, "gpu0", nil)
	f.m1.SetFleet(ledger, "gpu0")
	kvUsed := func() int64 { return ledger.Snapshot(f.eng.Now()).Devices[0].KVUsedBytes }

	seq, err := f.m1.NewSequence("r1", f.mod.KVShape(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	copyDur := latency.H800().PCIeCopy(seq.Bytes())
	fts.FailTransfers("gpu0", copyDur+10*time.Millisecond)
	if _, err := f.m1.SwapOut(seq); err != nil {
		t.Fatal(err)
	}
	f.eng.Run()
	if got, want := kvUsed(), f.m1.GPUCache.Pool().UsedBytes(); got != want {
		t.Fatalf("after a retried swap-out the ledger reads %d B of GPU KV, the pool %d B", got, want)
	}

	fts.FailTransfers("gpu0", copyDur+10*time.Millisecond)
	if _, err := f.m1.SwapIn(seq); err != nil {
		t.Fatal(err)
	}
	f.eng.Run()
	if got, want := kvUsed(), f.m1.GPUCache.Pool().UsedBytes(); got != want || want == 0 {
		t.Fatalf("after a retried swap-in the ledger reads %d B of GPU KV, the pool %d B", got, want)
	}
}
