package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRingIsNoop(t *testing.T) {
	var r *Ring
	r.Emit(Event{Kind: KindArrival})
	if r.Total() != 0 || r.Count(KindArrival) != 0 || r.Events() != nil {
		t.Fatal("nil ring recorded something")
	}
	if r.Summary() != "trace: disabled" {
		t.Fatalf("nil summary = %q", r.Summary())
	}
}

func TestRingEviction(t *testing.T) {
	r := newRing(4)
	for i := 0; i < 10; i++ {
		r.Emit(Event{At: time.Duration(i) * time.Second, Kind: KindTokenBatch})
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d, want 4", len(evs))
	}
	// Oldest retained is event 6 (0-indexed), newest is 9, in order.
	for i, e := range evs {
		if want := time.Duration(6+i) * time.Second; e.At != want {
			t.Fatalf("event %d at %v, want %v", i, e.At, want)
		}
	}
	if r.Total() != 10 || r.Count(KindTokenBatch) != 10 {
		t.Fatalf("counters = %d/%d", r.Total(), r.Count(KindTokenBatch))
	}
}

func TestRingSummary(t *testing.T) {
	r := newRing(8)
	r.Emit(Event{At: 1500 * time.Millisecond, Kind: KindTurnStart, Instance: "decode0", Subject: "Qwen-7B", detail: "3 reqs"})
	if !strings.Contains(r.Summary(), "turn-start=1") {
		t.Errorf("summary = %q", r.Summary())
	}
	out := r.Events()[0].String()
	for _, want := range []string{"1.500000s", "turn-start", "decode0", "Qwen-7B", "(3 reqs)"} {
		if !strings.Contains(out, want) {
			t.Errorf("event string missing %q: %s", want, out)
		}
	}
}

// TestKindStrings pins every kind name: the Perfetto export and /debug/trace
// print them.
func TestKindStrings(t *testing.T) {
	want := "arrival prefill-start prefill-done turn-start turn-end " +
		"switch-start switch-done token-batch request-done evict failure " +
		"recovery retry prefix"
	var names []string
	for k := Kind(0); k < numKinds; k++ {
		names = append(names, k.String())
	}
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("kind names = %q, want %q", got, want)
	}
	if !strings.HasPrefix(Kind(200).String(), "kind(") {
		t.Fatal("unknown kind rendering")
	}
}

func TestNewRingPanicsOnZeroCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("newRing(0) did not panic")
		}
	}()
	newRing(0)
}

// TestConcurrentEmitAndSnapshot drives writers (the simulation goroutine) and
// readers (debug handlers) at the same time; run under -race it proves the
// ring's locking is complete, and afterwards the wraparound invariants and
// per-kind counters must be exact.
func TestConcurrentEmitAndSnapshot(t *testing.T) {
	const (
		capacity   = 64
		writers    = 4
		perWriter  = 500
		readRounds = 200
	)
	tr := newRing(capacity)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := Kind(i % int(numKinds))
				tr.Emit(Event{At: time.Duration(i), Kind: k, Instance: "d0"})
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < readRounds; i++ {
			evs := tr.Events()
			if len(evs) > capacity {
				t.Errorf("snapshot holds %d events, cap %d", len(evs), capacity)
				return
			}
			_ = tr.Total()
			_ = tr.Count(KindArrival)
			_ = tr.Summary()
		}
	}()
	wg.Wait()

	if got := tr.Total(); got != writers*perWriter {
		t.Fatalf("total = %d, want %d", got, writers*perWriter)
	}
	if evs := tr.Events(); len(evs) != capacity {
		t.Fatalf("retained %d, want full ring of %d", len(evs), capacity)
	}
	// Each writer emits perWriter/numKinds (rounded) events of each kind.
	var sum uint64
	for k := Kind(0); k < numKinds; k++ {
		sum += tr.Count(k)
	}
	if sum != uint64(writers*perWriter) {
		t.Fatalf("per-kind counters sum to %d, want %d", sum, writers*perWriter)
	}
	perKind := tr.Count(KindArrival)
	want := uint64(writers) * uint64((perWriter+int(numKinds)-1)/int(numKinds))
	if perKind != want {
		t.Fatalf("KindArrival count = %d, want %d", perKind, want)
	}
}

// TestFaultsOutliveRingWrap: a fault recorded before the flat ring wraps
// still reaches the Perfetto fault track.
func TestFaultsOutliveRingWrap(t *testing.T) {
	c := New(Options{})
	c.Fault("decode0", "crash", "injected", ms(1))
	c.Retry("prefill0", "fetch", ms(2))
	for i := 0; i < ringCapacity+92; i++ {
		c.TokenBatch("decode1", 1, ms(10+i), nil)
	}
	if c.Ring().Count(KindFailure) != 1 || c.Ring().Events()[0].Kind != KindTokenBatch {
		t.Fatal("flat ring did not record the fault and then wrap past it")
	}
	var buf bytes.Buffer
	if err := c.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"name":"crash"`, `"name":"fetch"`, `"name":"failures"`, `"name":"retries"`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("export lost %s after the ring wrapped", want)
		}
	}
}
