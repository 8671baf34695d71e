package workload

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"
	"time"
)

// TestTraceGeneratorDigests pins the WriteTrace bytes of the session
// generators under their default configs. Arrival gaps and session lengths
// are float arithmetic over the defaults, so a default moved into a
// constant must keep each expression's operand order to keep these bytes.
func TestTraceGeneratorDigests(t *testing.T) {
	models := []string{"m0", "m1", "m2"}
	gen := map[string]func(rng *rand.Rand) []Request{
		"multiturn": func(rng *rand.Rand) []Request {
			return MultiTurnTrace(rng, models, 0.05, 30*time.Minute, ShareGPT(), MultiTurnConfig{})
		},
		"agentic": func(rng *rand.Rand) []Request {
			return AgenticTrace(rng, models, 0.05, 30*time.Minute, ShareGPT(), AgenticConfig{})
		},
	}
	cases := []struct {
		gen  string
		seed int64
		want string
	}{
		{"multiturn", 1, "add85c663f0f3e895734727eb4f8dfb5e55b10e26e7351b136ba2615f2e465fe"},
		{"multiturn", 2, "3c8e9035de04ec3fb60385977c7db85e40548a8ff552ad95c72d81804ef84f12"},
		{"agentic", 1, "7085a037b720eec2373f96a5ce7a1f3d1d21eac6ec7ff8bb73f531f1827d9597"},
		{"agentic", 2, "03809d3516f5bdf798962f09b9b78fea4f0b097d2e47fd445042e6ade9738263"},
	}
	for _, c := range cases {
		trace := gen[c.gen](rand.New(rand.NewSource(c.seed)))
		var buf bytes.Buffer
		if err := WriteTrace(&buf, trace); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s seed %d: %d requests, sha256 %s, want %s", c.gen, c.seed, len(trace), got, c.want)
		}
	}
}
