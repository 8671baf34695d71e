package fault

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// FuzzSpecRoundTrip: every spec ParseSpec accepts re-parses, through
// FormatSpec, to the same schedule.
func FuzzSpecRoundTrip(f *testing.F) {
	for _, spec := range []string{
		"fetchslow@10s+30s*4,xfer@30s+10s:decode0,crash@45s:decode1",
		"partition@40s+5s,storeslow@50s+6s*3",
		"reclaim@40s+8s:decode0,throttle@10s+30s*2.5:prefill1,reclaim@90s:decode1",
		// A factor of 1 must survive formatting rather than fall back to the
		// default; NaN and Inf factors are rejected.
		"throttle@10s+30s*1:decode0",
		"fetchslow@10s*NaN",
		"storeslow@10s*Inf",
	} {
		f.Add(spec)
	}
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f.Add(FormatSpec(RandomSchedule(rng, 5*time.Minute, []string{"decode0"}, []string{"m"}, 6)))
	}
	f.Fuzz(func(t *testing.T, spec string) {
		sched, err := ParseSpec(spec)
		if err != nil {
			return
		}
		formatted := FormatSpec(sched)
		back, err := ParseSpec(formatted)
		if err != nil {
			t.Fatalf("ParseSpec(%q) accepted, but its FormatSpec %q is rejected: %v", spec, formatted, err)
		}
		if !reflect.DeepEqual(sched, back) {
			t.Fatalf("round trip of %q through %q diverged\nwant: %#v\ngot:  %#v", spec, formatted, sched, back)
		}
	})
}
