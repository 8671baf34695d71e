package workload

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

// sessionTurns groups a trace by session and returns each session's requests
// in turn order.
func sessionTurns(t *testing.T, trace []Request) map[string][]Request {
	t.Helper()
	bySess := map[string][]Request{}
	for _, r := range trace {
		if r.SessionID == "" {
			t.Fatalf("request %s has no session", r.ID)
		}
		bySess[r.SessionID] = append(bySess[r.SessionID], r)
	}
	for sid, reqs := range bySess {
		sort.Slice(reqs, func(i, j int) bool { return reqs[i].Turn < reqs[j].Turn })
		for i, r := range reqs {
			if r.Turn != i {
				t.Fatalf("session %s: turn sequence has gap at %d (got %d)", sid, i, r.Turn)
			}
		}
		bySess[sid] = reqs
	}
	return bySess
}

// segPrefix checks prev's segment list is a prefix of next's: same seeds in
// order, equal lengths except prev's last segment may be a shorter cut of the
// stream next continues.
func segPrefix(prev, next []PromptSeg) bool {
	if len(prev) > len(next) {
		return false
	}
	for i, s := range prev {
		if s.Seed != next[i].Seed {
			return false
		}
		if s.Len == next[i].Len {
			continue
		}
		// A shorter segment is only a valid prefix at prev's tail.
		if i == len(prev)-1 && s.Len < next[i].Len {
			continue
		}
		return false
	}
	return true
}

func checkTraceShape(t *testing.T, trace []Request) {
	t.Helper()
	for i, r := range trace {
		sum := 0
		for _, s := range r.Segments {
			if s.Len <= 0 {
				t.Fatalf("request %s: non-positive segment length %d", r.ID, s.Len)
			}
			sum += s.Len
		}
		if sum != r.InputTokens {
			t.Fatalf("request %s: segments sum to %d, input is %d", r.ID, sum, r.InputTokens)
		}
		if i > 0 && trace[i].Arrival < trace[i-1].Arrival {
			t.Fatalf("arrivals unsorted at %d", i)
		}
	}
}

// TestMultiTurnGrowsPrefixes: within a session, turn n's prompt segments are
// a strict prefix of turn n+1's — the property the prefix cache exploits —
// and the chunk hashes agree on the shared blocks.
func TestMultiTurnGrowsPrefixes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	trace := MultiTurnTrace(rng, []string{"m0", "m1"}, 0.05, 10*time.Minute,
		ShareGPT(), MultiTurnConfig{SystemPromptTokens: 128})
	if len(trace) == 0 {
		t.Fatal("empty trace")
	}
	checkTraceShape(t, trace)
	multi := 0
	for sid, reqs := range sessionTurns(t, trace) {
		if len(reqs) > 1 {
			multi++
		}
		for i := 1; i < len(reqs); i++ {
			prev, next := reqs[i-1], reqs[i]
			if !segPrefix(prev.Segments, next.Segments) {
				t.Fatalf("session %s: turn %d segments %v not a prefix of turn %d's %v",
					sid, i-1, prev.Segments, i, next.Segments)
			}
			if next.InputTokens <= prev.InputTokens {
				t.Fatalf("session %s: context did not grow (%d -> %d)",
					sid, prev.InputTokens, next.InputTokens)
			}
			if next.Arrival <= prev.Arrival {
				t.Fatalf("session %s: turn %d arrives before turn %d", sid, i, i-1)
			}
			// Shared system prompt: every turn leads with the model's seed.
			if next.Segments[0].Seed != systemSeed(next.Model) || next.Segments[0].Len != 128 {
				t.Fatalf("session %s: system segment missing: %v", sid, next.Segments[0])
			}
		}
	}
	if multi == 0 {
		t.Fatal("no multi-turn sessions drawn — MeanTurns default broken?")
	}
}

// TestAgenticContextOutgrowsChat: agentic loops re-send tool results, so the
// per-turn context growth must exceed chat's output-only growth, and turns
// arrive on tool latency, far tighter than think time.
func TestAgenticContextOutgrowsChat(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	trace := AgenticTrace(rng, []string{"m0"}, 0.05, 10*time.Minute,
		ShareGPT(), AgenticConfig{})
	if len(trace) == 0 {
		t.Fatal("empty trace")
	}
	checkTraceShape(t, trace)
	growth, gaps := []int{}, []time.Duration{}
	for sid, reqs := range sessionTurns(t, trace) {
		for i := 1; i < len(reqs); i++ {
			if !segPrefix(reqs[i-1].Segments, reqs[i].Segments) {
				t.Fatalf("session %s: turn %d not a prefix extension", sid, i)
			}
			growth = append(growth, reqs[i].InputTokens-reqs[i-1].InputTokens)
			gaps = append(gaps, reqs[i].Arrival-reqs[i-1].Arrival)
		}
		if reqs[0].Segments[0].Len != 512 {
			t.Fatalf("session %s: default 512-token scaffold missing: %v", sid, reqs[0].Segments[0])
		}
	}
	if len(growth) == 0 {
		t.Fatal("no multi-step tasks drawn")
	}
	var meanGrowth float64
	var meanGap time.Duration
	for i := range growth {
		meanGrowth += float64(growth[i])
		meanGap += gaps[i]
	}
	meanGrowth /= float64(len(growth))
	meanGap /= time.Duration(len(gaps))
	// Output (~200 from ShareGPT) plus tool results (~264): well above chat's
	// output-only floor.
	if meanGrowth < 250 {
		t.Errorf("mean context growth %f too small for tool-result injection", meanGrowth)
	}
	if meanGap > 20*time.Second {
		t.Errorf("mean inter-step gap %v is chat-scale; tool loops should be tight", meanGap)
	}
}

// TestSharedPrefixTraceShape: every request to a model leads with the same
// long system segment and a unique suffix.
func TestSharedPrefixTraceShape(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	trace := SharedPrefixTrace(rng, []string{"m0", "m1"}, 0.2, 5*time.Minute, 2048, ShareGPT())
	if len(trace) == 0 {
		t.Fatal("empty trace")
	}
	checkTraceShape(t, trace)
	suffixes := map[uint64]bool{}
	for _, r := range trace {
		if len(r.Segments) != 2 {
			t.Fatalf("request %s has %d segments, want system+user", r.ID, len(r.Segments))
		}
		if r.Segments[0].Seed != systemSeed(r.Model) || r.Segments[0].Len != 2048 {
			t.Fatalf("request %s: bad system segment %v", r.ID, r.Segments[0])
		}
		if suffixes[r.Segments[1].Seed] {
			t.Fatalf("request %s: user suffix seed repeats — suffixes must be unique", r.ID)
		}
		suffixes[r.Segments[1].Seed] = true
		if r.SessionID != "" {
			t.Fatalf("request %s: shared-prefix trace is single-turn, got session %q", r.ID, r.SessionID)
		}
	}
}

// TestMultiTurnDeterminism: the same seed draws the same trace.
func TestMultiTurnDeterminism(t *testing.T) {
	gen := func() []Request {
		rng := rand.New(rand.NewSource(42))
		return MultiTurnTrace(rng, []string{"a", "b"}, 0.05, 5*time.Minute,
			ShareGPT(), MultiTurnConfig{SystemPromptTokens: 64})
	}
	if !reflect.DeepEqual(gen(), gen()) {
		t.Fatal("same seed produced different traces")
	}
}

// TestSeedStringStable pins the FNV-1a derivation: gateway session routing
// and trace generation must agree on it across processes.
func TestSeedStringStable(t *testing.T) {
	if got := SeedString(""); got != 14695981039346656037 {
		t.Fatalf("SeedString(\"\") = %d, want FNV offset basis", got)
	}
	if SeedString("a") == SeedString("b") {
		t.Fatal("distinct strings collided")
	}
	if SeedString("system\x00m0") != systemSeed("m0") {
		t.Fatal("systemSeed diverged from SeedString derivation")
	}
}
