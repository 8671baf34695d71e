package fleetobs

import (
	"encoding/json"
	"testing"
	"time"

	"aegaeon/internal/gpu"
	"aegaeon/internal/sim"
)

// FuzzValidateFleet: Snapshot.Validate never panics on a fleet snapshot
// decoded from arbitrary JSON, null included. The corpus starts from a real
// snapshot, which validates.
func FuzzValidateFleet(f *testing.F) {
	eng := sim.NewEngine(1)
	l := New(eng)
	l.NameModel(1, "m1")
	dev := gpu.NewDevice(eng, "dev0")
	l.ObserveDevice(dev)
	s := dev.NewStream("s")
	s.SubmitOp(gpu.Compute, 30*time.Millisecond, gpu.OpInfo{Kind: gpu.OpPrefill, Model: 1})
	s.SubmitOp(gpu.H2D, 20*time.Millisecond, gpu.OpInfo{Kind: gpu.OpKVIn, Request: "r1"})
	eng.RunUntil(sim.Time(time.Second))
	l.AddTokens(l.Ref("dev0"), 1, 9)
	snap := l.Snapshot(eng.Now())
	if err := snap.Validate(); err != nil {
		f.Fatalf("real snapshot does not validate: %v", err)
	}
	seed, err := json.Marshal(snap)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`null`))
	f.Add([]byte(`{"schema_version":1,"devices":[{"device":"d","wall_s":1,"states_s":{"idle":-1}}]}`))

	f.Fuzz(func(t *testing.T, in []byte) {
		var snap *Snapshot
		if json.Unmarshal(in, &snap) != nil {
			return
		}
		_ = snap.Validate()
	})
}
