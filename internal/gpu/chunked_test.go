package gpu_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"aegaeon/internal/fleetobs"
	"aegaeon/internal/gpu"
	"aegaeon/internal/model"
	"aegaeon/internal/sim"
)

// chunk is the transfer chunk length in the differential runs below; every
// duration and delay they draw is a whole number of milliseconds, so chunk
// boundaries often coincide with other events.
const chunk = 25 * time.Millisecond

// chunkWorld is one run of a schedule: two devices, each with three plain
// streams (any engine) and three transfer streams (one per engine).
type chunkWorld struct {
	eng     *sim.Engine
	devs    [2]*gpu.Device
	plain   [6]*gpu.Stream // device i owns plain[3i:3i+3]
	xfer    [6]*gpu.Stream // xfer[3i+k] runs on engine k of device i
	ledger  *fleetobs.Ledger
	records [2][3][]gpu.OpRecord // per device and engine, in delivery order
	done    []sim.Time           // per op, when its onDone ran
	marks   []sim.Time           // every Record's completion time, in call order; -1 until it fires
	waits   []gpu.Event          // Records on plain streams, for WaitEvent
}

// mark records ev's completion time as the next entry of marks.
func (w *chunkWorld) mark(ev gpu.Event) {
	i := len(w.marks)
	w.marks = append(w.marks, -1)
	ev.OnComplete(func() { w.marks[i] = w.eng.Now() })
}

func newChunkWorld(ledger bool) *chunkWorld {
	w := &chunkWorld{eng: sim.NewEngine(1)}
	if ledger {
		w.ledger = fleetobs.New(w.eng)
	}
	for i := range w.devs {
		d := gpu.NewDevice(w.eng, fmt.Sprint("gpu", i))
		w.devs[i] = d
		d.Observe(func(_ *gpu.Device, r gpu.OpRecord) {
			w.records[i][r.Engine] = append(w.records[i][r.Engine], r)
		})
		w.ledger.ObserveDevice(d) // nil-safe
		for k := 0; k < 3; k++ {
			w.plain[3*i+k] = d.NewStream(fmt.Sprint("plain", k))
			w.xfer[3*i+k] = d.NewStream(fmt.Sprint("xfer", k))
		}
	}
	return w
}

// info labels an op so that ops the fleet ledger files under one state
// also share a model. The ledger attributes a state to the model of the
// claim that started last, so a per-chunk re-claim would re-attribute a
// state shared by two models; in the engine the only chunked transfers are
// H2D weight loads and prefetches, which nothing else on a device overlaps.
func info(k gpu.EngineKind, kind gpu.OpKind, req int) gpu.OpInfo {
	i := gpu.OpInfo{Kind: kind, Request: fmt.Sprint("op", req)}
	i.Model = model.ID(fleetobs.Classify(k, i)) + 1
	return i
}

// submitTransfer queues a transfer of total on s: as one chunked op, or as
// the per-chunk SubmitOp sequence it stands for.
func submitTransfer(s *gpu.Stream, k gpu.EngineKind, total time.Duration, in gpu.OpInfo, perChunk bool, done func()) {
	if !perChunk {
		s.SubmitChunked(k, total, chunk, in, done)
		return
	}
	if total < 2*chunk {
		s.SubmitOp(k, total, in, done)
		return
	}
	n := int(total / chunk)
	for i := 0; i < n-1; i++ {
		s.SubmitOp(k, chunk, in)
	}
	s.SubmitOp(k, total-time.Duration(n-1)*chunk, in, done)
}

// runChunkSchedule plays data as a schedule in one world. Each four-byte
// step picks a stream and an action and then waits 0-24 ms for the next
// step, so every step runs from an event scheduled less than one chunk
// before it fires. Plain ops last under a chunk, and WaitEvent only awaits
// Records on plain streams, whose ops are likewise short. Each op that
// joins an engine's queue therefore comes from an event scheduled less
// than one chunk earlier, after the event that ends the chunk in flight.
// So with per-chunk ops an op joining at the exact instant of a chunk
// boundary runs after the next chunk, the rule SubmitChunked documents,
// and the two shapes agree by construction.
func runChunkSchedule(data []byte, perChunk bool) *chunkWorld {
	w := newChunkWorld(len(data) > 0 && data[0]&1 != 0)
	if len(data) > 0 {
		data = data[1:]
	}
	const maxSteps = 200
	var step func()
	step = func() {
		if len(data) < 4 || len(w.done) >= maxSteps {
			return
		}
		b := data[:4]
		data = data[4:]
		id := len(w.done)
		w.done = append(w.done, -1)
		finish := func() { w.done[id] = w.eng.Now() }
		i := int(b[0]) % 12
		if i < 6 {
			s := w.plain[i]
			switch b[1] % 4 {
			case 0, 1:
				k := gpu.EngineKind(b[2] % 3)
				s.SubmitOp(k, time.Duration(b[2]/3%25)*time.Millisecond, info(k, gpu.OpKind(b[1]/4%10), id), finish)
			case 2:
				ev := s.Record()
				w.mark(ev)
				w.waits = append(w.waits, ev)
			case 3:
				if len(w.waits) > 0 {
					s.WaitEvent(w.waits[int(b[2])%len(w.waits)])
				}
			}
		} else {
			s, k := w.xfer[i-6], gpu.EngineKind((i-6)%3)
			switch b[1] % 4 {
			case 0, 1:
				total := time.Duration(b[2]) * time.Millisecond
				submitTransfer(s, k, total, info(k, gpu.OpKind(b[1]/4%10), id), perChunk, finish)
			case 2:
				w.mark(s.Record())
			case 3:
				if len(w.waits) > 0 {
					s.WaitEvent(w.waits[int(b[2])%len(w.waits)])
				}
			}
		}
		w.eng.After(time.Duration(b[3]%25)*time.Millisecond, step)
	}
	w.eng.After(0, step)
	w.eng.Run()
	return w
}

// checkChunkedMatchesPerChunk runs data both ways and requires the same
// op records per engine, op and Record completion times, engine busy times
// and fleet ledger snapshot, with no more kernel events for the chunked run.
func checkChunkedMatchesPerChunk(t *testing.T, data []byte) {
	got, want := runChunkSchedule(data, false), runChunkSchedule(data, true)
	if got.eng.Now() != want.eng.Now() {
		t.Fatalf("run ended at %v, per-chunk at %v", got.eng.Now(), want.eng.Now())
	}
	if g, p := got.eng.Processed(), want.eng.Processed(); g > p {
		t.Fatalf("chunked run fired %d kernel events, per-chunk %d", g, p)
	}
	for i := range got.devs {
		for k := gpu.EngineKind(0); k < 3; k++ {
			if g, w := got.records[i][k], want.records[i][k]; !reflect.DeepEqual(g, w) {
				t.Fatalf("gpu%d %v records differ:\n got %v\nwant %v", i, k, g, w)
			}
			if g, w := got.devs[i].BusyTime(k), want.devs[i].BusyTime(k); g != w {
				t.Fatalf("gpu%d %v busy %v, per-chunk %v", i, k, g, w)
			}
		}
	}
	if !reflect.DeepEqual(got.done, want.done) {
		t.Fatalf("op completion times differ:\n got %v\nwant %v", got.done, want.done)
	}
	if !reflect.DeepEqual(got.marks, want.marks) {
		t.Fatalf("Record completion times differ (-1: never fired):\n got %v\nwant %v", got.marks, want.marks)
	}
	if g, w := got.ledger.Snapshot(got.eng.Now()), want.ledger.Snapshot(want.eng.Now()); !reflect.DeepEqual(g, w) {
		t.Fatalf("fleet snapshots differ:\n got %+v\nwant %+v", g, w)
	}
}

func TestChunkedMatchesPerChunkRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		data := make([]byte, 1+4*(1+rng.Intn(120)))
		rng.Read(data)
		checkChunkedMatchesPerChunk(t, data)
	}
}

func FuzzChunkedTransfer(f *testing.F) {
	f.Add([]byte{})
	// A 200 ms load on gpu0's H2D engine, ledger on, and a 10 ms H2D op
	// 20 ms later: it runs at the first chunk boundary.
	f.Add([]byte{1, 7, 16, 200, 20, 1, 0, 31, 0})
	// The same op arriving exactly at that boundary runs after the next
	// chunk.
	f.Add([]byte{0, 7, 16, 200, 24, 0, 2, 0, 1, 1, 0, 31, 0})
	f.Fuzz(checkChunkedMatchesPerChunk)
}
