package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval recorded around a call into the program.
// Spans of one live request share req; parent is the index of the span
// that caused this one, or -1.
type span struct {
	name       string
	start, end time.Time
	parent     int
	req        int64
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, so untraced runs pay only a nil check per call site.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

// add records a finished span and returns its index (-1 on a nil recorder).
func (r *recorder) add(name string, start, end time.Time, parent int, req int64) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name, start, end, parent, req})
	return len(r.spans) - 1
}

// open starts a span whose end is set by close; children recorded in
// between can name it as their parent.
func (r *recorder) open(name string, parent int) int {
	now := time.Now()
	return r.add(name, now, now, parent, 0)
}

func (r *recorder) close(id int) {
	if r == nil || id < 0 {
		return
	}
	r.mu.Lock()
	r.spans[id].end = time.Now()
	r.mu.Unlock()
}

// timed runs fn inside a span and returns its wall time.
func (r *recorder) timed(name string, parent int, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	r.add(name, start, end, parent, 0)
	return end.Sub(start)
}

func (r *recorder) count() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// overheadPct is the share of wall the recorder itself cost: the number of
// spans recorded times the measured cost of recording one, over wall.
func (r *recorder) overheadPct(wall time.Duration) float64 {
	const n = 100000
	var probe recorder
	probe.spans = make([]span, 0, 1024) // grow as the real recorder did
	t0 := time.Now()
	for i := 0; i < n; i++ {
		probe.add("probe", t0, t0, -1, int64(i))
	}
	perSpan := float64(time.Since(t0)) / n
	return 100 * perSpan * float64(r.count()) / float64(wall)
}

// writeChrome writes the spans as Chrome trace-event JSON, which Perfetto
// (ui.perfetto.dev) and chrome://tracing open. Spans of one live request
// share a track, so request ⊃ admit/queue/stream nest visually; everything
// else sits on track 0.
func (r *recorder) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	var t0 time.Time
	if len(r.spans) > 0 {
		t0 = r.spans[0].start
		for _, s := range r.spans {
			if s.start.Before(t0) {
				t0 = s.start
			}
		}
	}
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	for i, s := range r.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		name, _ := json.Marshal(s.name)
		fmt.Fprintf(w, "\n{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%d,\"parent\":%d,\"request\":%d}}",
			name, s.req, float64(s.start.Sub(t0).Nanoseconds())/1e3, float64(s.end.Sub(s.start).Nanoseconds())/1e3,
			i, s.parent, s.req)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
