package obs

import (
	"bytes"
	"strings"
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
	if err := c.PerfettoTrace().Write(&buf, nil); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"name":"crash"`, `"name":"fetch"`, `"name":"failures"`, `"name":"retries"`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("export lost %s after the ring wrapped", want)
		}
	}
}
