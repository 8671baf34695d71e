package fault

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"aegaeon/internal/sim"
)

func TestParseSpec(t *testing.T) {
	sched, err := ParseSpec("crash@45s:decode1, xfer@30s+10s:decode0;fetchslow@10s+30s*4,partition@60s+5s")
	if err != nil {
		t.Fatal(err)
	}
	want := []Fault{
		{At: 10 * time.Second, Kind: KindFetchSlow, Duration: 30 * time.Second, Factor: 4},
		{At: 30 * time.Second, Kind: KindTransfer, Target: "decode0", Duration: 10 * time.Second},
		{At: 45 * time.Second, Kind: KindCrash, Target: "decode1"},
		{At: 60 * time.Second, Kind: KindPartition, Duration: 5 * time.Second},
	}
	if !reflect.DeepEqual(sched, want) {
		t.Fatalf("got %+v\nwant %+v", sched, want)
	}
}

func TestParseSpecDefaults(t *testing.T) {
	sched, err := ParseSpec("fetchfail@5s:m1,storeslow@1s")
	if err != nil {
		t.Fatal(err)
	}
	if sched[1].Duration != defaultWindow {
		t.Fatalf("fetchfail default window = %v", sched[1].Duration)
	}
	if sched[0].Factor != defaultFactor {
		t.Fatalf("storeslow default factor = %v", sched[0].Factor)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, bad := range []string{
		"boom@5s",           // unknown kind
		"crash5s",           // missing @
		"crash@-1s:decode0", // negative time
		"crash@5s+10s:d0",   // crash takes no duration
		"xfer@5s*2:d0",      // xfer takes no factor
		"storeslow@5s:d0",   // storeslow takes no target
		"fetchslow@5s*0:m",  // non-positive factor
		"crash@zzz:d0",      // unparseable time
		"xfer@1s+0s:d0",     // non-positive duration
		"crash@5s:",         // empty target
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) succeeded, want error", bad)
		}
	}
	if sched, err := ParseSpec("  "); err != nil || sched != nil {
		t.Errorf("blank spec: got %v, %v", sched, err)
	}
}

func TestFormatSpecRoundTrip(t *testing.T) {
	in := "fetchslow@10s+30s*4,xfer@30s+10s:decode0,crash@45s:decode1"
	sched, err := ParseSpec(in)
	if err != nil {
		t.Fatal(err)
	}
	again, err := ParseSpec(FormatSpec(sched))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sched, again) {
		t.Fatalf("round trip changed schedule:\n%+v\n%+v", sched, again)
	}
}

func TestBackoffDelay(t *testing.T) {
	want := []time.Duration{50, 100, 200, 400, 800, 1600, 2000, 2000}
	for i, w := range want {
		if got := backoffDelay(i, nil); got != w*time.Millisecond {
			t.Errorf("backoffDelay(%d) = %v, want %v", i, got, w*time.Millisecond)
		}
	}
	// Jitter stays within ±20% and is deterministic for a fixed seed.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		d := backoffDelay(2, rng)
		base := 200 * time.Millisecond
		if d < time.Duration(float64(base)*0.8) || d > time.Duration(float64(base)*1.2) {
			t.Fatalf("jittered delay %v outside ±20%% of %v", d, base)
		}
	}
	r1, r2 := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
	if backoffDelay(1, r1) != backoffDelay(1, r2) {
		t.Fatal("same seed produced different jittered delays")
	}
}

func TestFaultsWindowsNilSafe(t *testing.T) {
	var nilF *Faults
	if nilF.TransferFailing("x") || nilF.FetchFailing("m") || nilF.FetchFactor() != 1 {
		t.Fatal("nil Faults reported an active fault")
	}
	nilF.CountCrash() // must not panic
	if nilF.RetryDelay(0) <= 0 {
		t.Fatal("nil RetryDelay not positive")
	}
	if nilF.MaxAttempts() != maxAttempts {
		t.Fatal("nil MaxAttempts mismatch")
	}

	eng := sim.NewEngine(1)
	f := New(eng, 42)
	f.FailTransfers("decode0", 5*time.Second)
	f.FailFetch("*", 3*time.Second)
	f.SlowFetch(4, 10*time.Second)
	if !f.TransferFailing("decode0") || f.TransferFailing("decode1") {
		t.Fatal("transfer window wrong")
	}
	if !f.FetchFailing("anything") {
		t.Fatal("wildcard fetch window not applied")
	}
	if f.FetchFactor() != 4 {
		t.Fatalf("FetchFactor = %v", f.FetchFactor())
	}
	// Windows expire with the sim clock.
	eng.After(6*time.Second, func() {})
	eng.Run()
	if f.TransferFailing("decode0") || f.FetchFailing("anything") {
		t.Fatal("windows did not expire")
	}
	if f.FetchFactor() != 4 { // slow window is 10s
		t.Fatalf("FetchFactor after 6s = %v", f.FetchFactor())
	}
	eng.After(5*time.Second, func() {})
	eng.Run()
	if f.FetchFactor() != 1 {
		t.Fatal("slow window did not expire")
	}
}

type recordSurface struct {
	crashed []string
	calls   int
}

func (r *recordSurface) Crash(t string) error {
	r.crashed = append(r.crashed, t)
	r.calls++
	return nil
}
func (r *recordSurface) Reclaim(string, sim.Time) error           { r.calls++; return nil }
func (r *recordSurface) Throttle(string, float64, sim.Time) error { r.calls++; return nil }
func (r *recordSurface) PartitionStore(sim.Time) error            { r.calls++; return nil }
func (r *recordSurface) SlowStore(float64, sim.Time) error        { r.calls++; return nil }

func TestInjectorReplaysSchedule(t *testing.T) {
	eng := sim.NewEngine(1)
	sched, err := ParseSpec("crash@2s:decode1,xfer@1s+2s:decode0,partition@3s+1s")
	if err != nil {
		t.Fatal(err)
	}
	var rs recordSurface
	f := New(eng, 1)
	in := NewInjector(eng, &rs, f, sched)
	in.Arm()
	eng.At(1500*time.Millisecond, func() {
		if !f.TransferFailing("decode0") || f.TransferFailing("decode1") {
			t.Error("xfer fault did not open its window on decode0 alone")
		}
	})
	eng.Run()
	if rs.calls != 2 || in.Injected() != 3 || len(in.Errors()) != 0 {
		t.Fatalf("calls=%d injected=%d errs=%v", rs.calls, in.Injected(), in.Errors())
	}
	if len(rs.crashed) != 1 || rs.crashed[0] != "decode1" {
		t.Fatalf("crashed = %v", rs.crashed)
	}
}

// Without fault state the runtime-window kinds cannot inject: each is an
// error, and the surface kinds still fire.
func TestInjectorWithoutFaultsRejectsWindows(t *testing.T) {
	eng := sim.NewEngine(1)
	sched, err := ParseSpec("xfer@1s+2s,fetchfail@1s,fetchslow@1s,crash@2s:decode0")
	if err != nil {
		t.Fatal(err)
	}
	var rs recordSurface
	in := NewInjector(eng, &rs, nil, sched)
	in.Arm()
	eng.Run()
	if in.Injected() != 1 || len(in.Errors()) != 3 || rs.calls != 1 {
		t.Fatalf("injected=%d calls=%d errs=%v", in.Injected(), rs.calls, in.Errors())
	}
}

func TestRandomScheduleDeterministic(t *testing.T) {
	insts := []string{"prefill0", "decode0", "decode1"}
	models := []string{"m1", "m2"}
	a := RandomSchedule(rand.New(rand.NewSource(9)), time.Minute, insts, models, 8)
	b := RandomSchedule(rand.New(rand.NewSource(9)), time.Minute, insts, models, 8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	if len(a) != 8 {
		t.Fatalf("len = %d", len(a))
	}
	for _, f := range a {
		if f.At < time.Minute/20 || f.At > time.Minute*4/5 {
			t.Fatalf("fault time %v outside bounds", f.At)
		}
	}
}
