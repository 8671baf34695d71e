package obs

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"aegaeon/internal/fleetobs"
	"aegaeon/internal/gpu"
	"aegaeon/internal/model"
	"aegaeon/internal/sim"
)

// TestOpRingMatchesNaiveRing pushes random mixes of plain and
// request-bearing ops through many wraps of small rings and checks that the
// compact ring rebuilds exactly the records a naive ring of full
// gpu.OpRecords retains, request names included.
func TestOpRingMatchesNaiveRing(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		capacity := 1 + rng.Intn(12)
		reqShare := rng.Float64() // from almost no named ops to almost all
		var r opRing
		naive := []gpu.OpRecord{}
		var at time.Duration
		pushes := rng.Intn(10 * capacity)
		for i := 0; i < pushes; i++ {
			rec := gpu.OpRecord{Engine: gpu.H2D, Start: at, End: at + time.Duration(rng.Intn(5))}
			at = rec.End
			rec.Info.Kind = gpu.OpKind(rng.Intn(10))
			rec.Info.Model = model.ID(rng.Intn(4))
			if rng.Float64() < reqShare {
				rec.Info.Request = fmt.Sprintf("r%d", i)
			}
			r.push(rec, capacity)
			if naive = append(naive, rec); len(naive) > capacity {
				naive = naive[1:]
			}
			if got := r.ordered(gpu.H2D); !reflect.DeepEqual(got, naive) {
				t.Fatalf("trial %d (capacity %d) after %d pushes:\n got %+v\nwant %+v", trial, capacity, i+1, got, naive)
			}
		}
		if r.total != uint64(pushes) {
			t.Fatalf("trial %d: total %d, want %d", trial, r.total, pushes)
		}
	}
}

// TestOpRecordIsPointerFree: the records a full op ring holds cost the
// garbage collector nothing to scan.
func TestOpRecordIsPointerFree(t *testing.T) {
	if p := pointerPath(reflect.TypeOf(opRec{})); p != "" {
		t.Fatalf("op ring record holds a pointer at %s", p)
	}
	if n := unsafe.Sizeof(opRec{}); n != 24 {
		t.Fatalf("op ring record is %d bytes, want 24", n)
	}
}

// pointerPath returns the path to the first pointer-bearing part of t, or
// "" if t holds no pointers.
func pointerPath(t reflect.Type) string {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
		reflect.Map, reflect.Chan, reflect.Func, reflect.Interface:
		return t.String()
	case reflect.Array:
		if p := pointerPath(t.Elem()); p != "" {
			return "[]" + p
		}
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if p := pointerPath(t.Field(i).Type); p != "" {
				return t.Field(i).Name + "." + p
			}
		}
	}
	return ""
}

// TestObservedOpAllocs: on a warmed device whose ops the collector and the
// fleet ledger both observe, submitting and retiring an op allocates
// nothing, whether or not it names a request.
func TestObservedOpAllocs(t *testing.T) {
	se := sim.NewEngine(1)
	dev := gpu.NewDevice(se, "gpu0")
	c := New(Options{})
	l := fleetobs.New(se)
	c.ObserveDevice(dev)
	l.ObserveDevice(dev)
	c.NameModel(1, "m1")
	l.NameModel(1, "m1")
	s := dev.NewStream("s")
	infos := []gpu.OpInfo{
		{Kind: gpu.OpDecode, Model: 1},
		{Kind: gpu.OpPrefill, Model: 1, Request: "r1"},
	}
	run := func(info gpu.OpInfo) {
		s.SubmitOp(gpu.Compute, time.Millisecond, info)
		se.Run()
	}
	// Fill both rings and the ledger's segment ring past its first halving.
	for i := 0; i < maxOpsPerEngine+100; i++ {
		run(infos[i%len(infos)])
	}
	for _, info := range infos {
		if n := testing.AllocsPerRun(100, func() { run(info) }); n != 0 {
			t.Errorf("observed SubmitOp+Run of %s allocates %.1f times, want 0", info.Label("m1"), n)
		}
	}
}
