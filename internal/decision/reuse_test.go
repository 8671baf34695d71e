package decision

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"aegaeon/internal/sim"
)

// ids is a table of request ids, built once so that recording allocates no
// id strings.
var ids = func() []string {
	out := make([]string, 3*maxRequests)
	for i := range out {
		out[i] = fmt.Sprintf("r%d", i)
	}
	return out
}()

// scratch builds records the way the serving stack's call sites do: in
// buffers reused from one record to the next, which the journal must not
// keep.
type scratch struct {
	inputs []Term
	cands  []Candidate
	terms  []Term
	links  []string
}

// build fills a record of kind with nc candidates of two terms each, three
// inputs and the given links, all in s's buffers.
func (s *scratch) build(at sim.Time, kind string, nc int, links ...string) Record {
	s.inputs = append(s.inputs[:0], NsTerm("switch_cost", time.Duration(at)), Term{Name: "n", Value: float64(nc)},
		BoolTerm("odd", at%2 == 1))
	s.terms, s.cands = s.terms[:0], s.cands[:0]
	for i := 0; i < nc; i++ {
		s.terms = append(s.terms, Term{Name: "load", Value: float64(i)}, NsTerm("last_run", at))
	}
	for i := 0; i < nc; i++ {
		s.cands = append(s.cands, Candidate{Name: ids[i], Score: float64(i), Chosen: i == 0, Terms: s.terms[2*i : 2*i+2]})
	}
	s.links = append(s.links[:0], links...)
	r := Record{At: at, Kind: kind, Model: "m", Instance: "decode0", Outcome: "m",
		Reason: "decode rotation turn", Inputs: s.inputs, Candidates: s.cands, Requests: s.links}
	if len(links) > 0 {
		r.Request = links[0]
	}
	return r
}

// scribble overwrites every buffer s handed out.
func (s *scratch) scribble() {
	fill(s.inputs, Term{Name: "scribbled", Value: -1})
	fill(s.terms, Term{Name: "scribbled", Value: -1})
	fill(s.cands, Candidate{Name: "scribbled"})
	fill(s.links, "scribbled")
}

// fill sets every element of s's backing array, up to its capacity, to v.
func fill[T any](s []T, v T) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = v
	}
}

// TestJournalSteadyStateAllocs: once the ring is full and the chain index
// holds maxRequests chains, one record with candidates, terms, a reason and
// three request links allocates nothing, although it rotates the ring and
// each of its links evicts the oldest chain.
func TestJournalSteadyStateAllocs(t *testing.T) {
	j := New(Options{})
	var s scratch
	i := 0
	record := func() {
		n := len(ids)
		j.Record(s.build(sim.Time(i), KindSwitch, 4, ids[i%n], ids[(i+1)%n], ids[(i+2)%n]))
		i += 3
	}
	for j.Total() < 2*maxRecords {
		record()
	}
	if j.TrackedRequests() != maxRequests {
		t.Fatalf("warm-up tracks %d chains, want %d", j.TrackedRequests(), maxRequests)
	}
	if n := testing.AllocsPerRun(1000, record); n != 0 {
		t.Fatalf("a warmed journal allocated %.2f times per record", n)
	}
}

// BenchmarkJournalRecord is one record, like TestJournalSteadyStateAllocs's,
// on a warmed journal.
func BenchmarkJournalRecord(b *testing.B) {
	j := New(Options{})
	var s scratch
	for i := 0; i < 2*maxRecords; i++ {
		j.Record(s.build(sim.Time(i), KindSwitch, 4, ids[(3*i)%len(ids)], ids[(3*i+1)%len(ids)], ids[(3*i+2)%len(ids)]))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.Record(s.build(sim.Time(i), KindSwitch, 4, ids[(3*i)%len(ids)], ids[(3*i+1)%len(ids)], ids[(3*i+2)%len(ids)]))
	}
}

// TestJournalCopiesDoNotAlias: what Chain, Recent and Snapshot return stays
// as it was while later records reuse every slot and chain buffer those
// copies were taken from, and while another goroutine keeps snapshotting
// (run under -race).
func TestJournalCopiesDoNotAlias(t *testing.T) {
	j := New(Options{})
	var s scratch
	for i := 0; i < maxPerChain+8; i++ {
		j.Record(s.build(sim.Time(i), KindSwitch, 3, ids[0], ids[1+i%8]))
	}
	chain, recent, snap := j.Chain(ids[0]), j.Recent(0, ""), j.Snapshot()
	jsonOf := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	want := []string{jsonOf(chain), jsonOf(recent), jsonOf(snap)}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; ; n++ {
			select {
			case <-done:
				return
			default:
				_ = j.Recent(64, "")
				_ = j.Chain(ids[0])
				if n%1024 == 0 {
					_ = j.Snapshot()
				}
			}
		}
	}()
	// Rotate the whole ring and evict every chain, ids[0]'s included.
	for i := 0; i < maxRecords+2*maxRequests; i++ {
		j.Record(s.build(sim.Time(i), KindDecodePlacement, 2, ids[9+i%(2*maxRequests)]))
		s.scribble()
	}
	close(done)
	wg.Wait()
	if j.Chain(ids[0]) != nil {
		t.Fatal("the first chain was never evicted, so its buffer was never reused")
	}
	for i, got := range []string{jsonOf(chain), jsonOf(recent), jsonOf(snap)} {
		if got != want[i] {
			t.Errorf("copy %d changed after its slots were reused", i)
		}
	}
}

// FuzzJournal records the same random records into the journal and into
// the oracle (the copying journal that slots replaced, oracle_test.go) and
// compares their WriteJSON bytes. The journal's records are built in
// reused, then scribbled, buffers; the oracle's are fresh. Each three input
// bytes are one op: flags, a repeat count and an id offset. Repeats reach
// past the ring's bound, a narrow id space overflows chains past
// maxPerChain, and a wide one evicts chains.
func FuzzJournal(f *testing.F) {
	f.Add([]byte{0x01, 0, 0, 0x22, 0, 5, 0x03, 0, 1})
	f.Add([]byte{0x81, 20, 0, 0x42, 0, 1})             // chains past maxPerChain
	f.Add([]byte{0xb3, 255, 0, 0xb3, 10, 0})           // rotate the ring, evict chains
	f.Add([]byte{0xa3, 40, 3, 0xc1, 0, 7, 0x02, 0, 9}) // evict chains
	kinds := []string{KindAdmission, KindPrefillRouting, KindDecodePlacement, KindSwitch, KindKVEviction, KindTerminal}
	f.Fuzz(func(t *testing.T, in []byte) {
		j, o := New(Options{}), newOracle()
		var s scratch
		compare := func() {
			var got, want bytes.Buffer
			if err := j.WriteJSON(&got); err != nil {
				t.Fatal(err)
			}
			if err := o.writeJSON(&want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("journal export differs from the oracle's after %d records", j.Total())
			}
		}
		// Enough records to rotate the ring and evict chains, and no more,
		// so one input runs in about a second.
		const maxSeq = maxRecords + maxRequests
		seq := 0
		for ; len(in) >= 3 && seq < maxSeq; in = in[3:] {
			flags, count, off := in[0], int(in[1]), int(in[2])
			reps := 1
			if flags&0x80 != 0 {
				reps = count*64 + 1
			}
			space := 4 << (int(flags>>2) & 7) // 4 to 512 ids, or ...
			if flags&0x20 != 0 {
				space = len(ids) // ... every one
			}
			for k := 0; k < reps && seq < maxSeq; k++ {
				seq++
				links := s.links[:0]
				for l := 0; l < int(flags&3); l++ {
					links = append(links, ids[(off+seq*(l+1))%space])
				}
				r := s.build(sim.Time(seq), kinds[(seq+off)%len(kinds)], (seq+off)%5, links...)
				if seq%3 == 0 {
					r.Inputs = nil
				}
				j.Record(r)
				o.record(copyRecord(r))
				s.scribble()
			}
			if flags&0x40 != 0 {
				compare()
			}
		}
		compare()
	})
}
