package fault

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
)

// Property: FormatSpec∘ParseSpec is the identity on every schedule
// RandomSchedule can produce, across all fault kinds (including the
// spot-market reclaim/throttle kinds). RandomSchedule emits fully-defaulted
// faults and sorted times, so the round trip must reproduce the schedule
// byte-for-byte.
func TestSpecRoundTripProperty(t *testing.T) {
	instances := []string{"prefill0", "decode0", "decode1", "chaos/decode2"}
	models := []string{"llama-7b", "qwen-14b"}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sched := RandomSchedule(rng, 5*time.Minute, instances, models, 1+rng.Intn(12))
		spec := FormatSpec(sched)
		back, err := ParseSpec(spec)
		if err != nil {
			t.Fatalf("seed %d: ParseSpec(%q): %v", seed, spec, err)
		}
		if !reflect.DeepEqual(sched, back) {
			t.Fatalf("seed %d: round trip diverged\nspec: %q\nwant: %#v\ngot:  %#v",
				seed, spec, sched, back)
		}
	}
}

// Every kind must appear in the random pool over enough draws — a guard
// against a new kind being added to the grammar but not the generator.
func TestRandomScheduleCoversAllKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	seen := map[Kind]bool{}
	sched := RandomSchedule(rng, 10*time.Minute, []string{"decode0"}, []string{"m"}, 800)
	for _, f := range sched {
		seen[f.Kind] = true
	}
	for ks := range knownKinds {
		if !seen[Kind(ks)] {
			t.Errorf("kind %s never drawn by RandomSchedule", ks)
		}
	}
	// Without instances, the device-targeted spot kinds must not be drawn
	// (they would produce untargetable faults).
	seen = map[Kind]bool{}
	for _, f := range RandomSchedule(rng, 10*time.Minute, nil, []string{"m"}, 500) {
		seen[f.Kind] = true
	}
	if seen[KindReclaim] || seen[KindThrottle] {
		t.Error("spot kinds drawn without instance targets")
	}
}

// randomScheduleDigest is the sha256 of the schedules RandomSchedule draws
// for seeds 0-7 over the chaos harness's shape: its four instances, its four
// small models, a 120s horizon and four faults, one formatted spec per line.
const randomScheduleDigest = "2a71eaaf7f693f0c084a007e7db69e745f37842e6f855df2e5219868d204a16a"

// TestRandomScheduleDigest pins the generator's draws. Chaos random schedules
// come from it, and no chaos golden pins the draws themselves.
func TestRandomScheduleDigest(t *testing.T) {
	insts := []string{"chaos/prefill0", "chaos/prefill1", "chaos/decode0", "chaos/decode1"}
	models := []string{"Qwen-7B-ft000", "InternLM2.5-7B-chat-ft001", "Yi-6B-ft002", "Llama-2-7B-ft003"}
	var b strings.Builder
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b.WriteString(FormatSpec(RandomSchedule(rng, 120*time.Second, insts, models, 4)))
		b.WriteByte('\n')
	}
	sum := sha256.Sum256([]byte(b.String()))
	if got := hex.EncodeToString(sum[:]); got != randomScheduleDigest {
		t.Errorf("schedule digest %s, want %s\n%s", got, randomScheduleDigest, b.String())
	}
}

func TestParseReclaimThrottle(t *testing.T) {
	sched, err := ParseSpec("reclaim@40s+8s:decode0,throttle@10s+30s*2.5:prefill1,reclaim@90s:decode1")
	if err != nil {
		t.Fatal(err)
	}
	if len(sched) != 3 {
		t.Fatalf("%d faults", len(sched))
	}
	// Sorted by time: throttle@10s first.
	th := sched[0]
	if th.Kind != KindThrottle || th.At != 10*time.Second || th.Duration != 30*time.Second ||
		th.Factor != 2.5 || th.Target != "prefill1" {
		t.Fatalf("throttle parsed as %+v", th)
	}
	rc := sched[1]
	if rc.Kind != KindReclaim || rc.At != 40*time.Second || rc.Duration != 8*time.Second ||
		rc.Factor != 0 || rc.Target != "decode0" {
		t.Fatalf("reclaim parsed as %+v", rc)
	}
	// Grace defaults when omitted.
	if sched[2].Duration != defaultGrace {
		t.Fatalf("default grace = %v", sched[2].Duration)
	}

	for _, bad := range []string{
		"reclaim@40s",             // no target
		"throttle@40s",            // no target
		"reclaim@40s*2:decode0",   // factor on reclaim
		"partition@40s+5s:ms0",    // partition takes no target
		"netsplit@50s+6s:ms0~ms1", // kinds of the retired replicated store
		"netdelay@60s+4s*3:ms1",
		"rcrash@70s+10s:ms2",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) should fail", bad)
		}
	}
}
