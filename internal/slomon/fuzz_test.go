package slomon

import (
	"encoding/json"
	"testing"
	"time"

	"aegaeon/internal/slo"
)

// FuzzValidateSLO: Validate never panics on a monitor snapshot decoded from
// arbitrary JSON, null included. The corpus starts from a real snapshot with
// met, missed and dropped tokens, which validates.
func FuzzValidateSLO(f *testing.F) {
	m := testMonitor(Config{})
	for i := 0; i < 20; i++ {
		at := time.Duration(i) * 300 * time.Millisecond
		deadline := at + time.Second
		if i%4 == 0 {
			deadline = at - time.Millisecond
		}
		m.ObserveToken(TokenObs{Model: mid("m0"), Request: "r1", Instance: "g0", Index: i,
			Deadline: deadline, At: at, Prev: at - 300*time.Millisecond})
	}
	m.ObserveDropped(mid("m1"), "r2", "g0", 0, time.Second, 7*time.Second)
	m.ObserveVerdict(mid("m0"), slo.Judge(slo.Default(), 0, []time.Duration{time.Second, 2 * time.Second}))
	snap := m.Snapshot(8 * time.Second)
	if err := snap.Validate(); err != nil {
		f.Fatalf("real snapshot does not validate: %v", err)
	}
	seed, err := json.Marshal(snap)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`null`))
	f.Add([]byte(`{"schema_version":1,"objective":0.99,"windows":[{},{},{}],"fleet":{"alert":{"state":"ok"},"windowed":[{},{},{}],"causes":{"bogus":1}}}`))

	f.Fuzz(func(t *testing.T, in []byte) {
		var snap *Snapshot
		if json.Unmarshal(in, &snap) != nil {
			return
		}
		_ = snap.Validate()
	})
}
