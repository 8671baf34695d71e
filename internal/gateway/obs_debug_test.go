package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"testing"

	"aegaeon/internal/assemble"
	"aegaeon/internal/obs"
)

// TestMetricsExpositionFormat is the regression gate on the hand-rolled
// Prometheus text output: every counter follows the _total naming
// convention, and the TTFT/TBT histograms render well-formed cumulative
// buckets consistent with their _count and _sum lines.
func TestMetricsExpositionFormat(t *testing.T) {
	gw, names := newGateway(t, assemble.Spec{SLOMonitor: true}, testCluster{}, Options{Speedup: 50000})
	defer gw.Shutdown(context.Background())
	h := gw.Handler()
	for i := 0; i < 3; i++ {
		w := postCompletion(h, fmt.Sprintf(
			`{"model":%q,"input_tokens":8,"max_tokens":3,"stream":true}`, names[i%len(names)]))
		if w.Code != http.StatusOK {
			t.Fatalf("completion %d: status %d", i, w.Code)
		}
	}
	w := get(h, "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("metrics: status %d", w.Code)
	}
	body := w.Body.String()

	types := map[string]string{} // metric name -> declared type
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 4 {
			t.Fatalf("malformed TYPE line %q", line)
		}
		types[f[2]] = f[3]
	}
	if len(types) == 0 {
		t.Fatal("no TYPE declarations")
	}
	for name, typ := range types {
		if typ == "counter" && !strings.HasSuffix(name, "_total") {
			t.Errorf("counter %q does not end in _total", name)
		}
	}

	for _, hist := range []string{"aegaeon_gateway_ttft_hist_seconds", "aegaeon_gateway_tbt_hist_seconds"} {
		if types[hist] != "histogram" {
			t.Fatalf("%s declared %q, want histogram", hist, types[hist])
		}
		var bounds []float64
		var counts []uint64
		var infCount, count uint64
		var haveSum, haveInf bool
		for _, line := range strings.Split(body, "\n") {
			switch {
			case strings.HasPrefix(line, hist+"_bucket{le=\"+Inf\"} "):
				v, err := strconv.ParseUint(strings.Fields(line)[1], 10, 64)
				if err != nil {
					t.Fatal(err)
				}
				infCount, haveInf = v, true
			case strings.HasPrefix(line, hist+"_bucket{le=\""):
				rest := strings.TrimPrefix(line, hist+"_bucket{le=\"")
				end := strings.Index(rest, "\"} ")
				b, err := strconv.ParseFloat(rest[:end], 64)
				if err != nil {
					t.Fatal(err)
				}
				c, err := strconv.ParseUint(rest[end+len("\"} "):], 10, 64)
				if err != nil {
					t.Fatal(err)
				}
				bounds = append(bounds, b)
				counts = append(counts, c)
			case strings.HasPrefix(line, hist+"_sum "):
				haveSum = true
			case strings.HasPrefix(line, hist+"_count "):
				v, err := strconv.ParseUint(strings.Fields(line)[1], 10, 64)
				if err != nil {
					t.Fatal(err)
				}
				count = v
			}
		}
		if len(bounds) == 0 || !haveInf || !haveSum {
			t.Fatalf("%s exposition incomplete (bounds=%d inf=%v sum=%v)\n%s",
				hist, len(bounds), haveInf, haveSum, body)
		}
		if !sort.Float64sAreSorted(bounds) {
			t.Errorf("%s bounds not ascending: %v", hist, bounds)
		}
		for i := 1; i < len(counts); i++ {
			if counts[i] < counts[i-1] {
				t.Errorf("%s bucket counts not cumulative: %v", hist, counts)
			}
		}
		if len(counts) > 0 && counts[len(counts)-1] > infCount {
			t.Errorf("%s last bucket %d exceeds +Inf %d", hist, counts[len(counts)-1], infCount)
		}
		if infCount != count {
			t.Errorf("%s +Inf bucket %d != _count %d", hist, infCount, count)
		}
	}
	// The three requests produced 3 TTFT and 6 TBT samples; exact counts are
	// the histogram's reason to exist next to the subsampling summaries.
	if !strings.Contains(body, "aegaeon_gateway_ttft_hist_seconds_count 3") {
		t.Errorf("ttft histogram count wrong\n%s", body)
	}
	if !strings.Contains(body, "aegaeon_gateway_tbt_hist_seconds_count 6") {
		t.Errorf("tbt histogram count wrong\n%s", body)
	}
}

// TestDebugEndpoints exercises the live observability surface end to end:
// serve traffic, then read back the flat trace, one request's span tree, GPU
// utilization, and a valid Perfetto export.
func TestDebugEndpoints(t *testing.T) {
	gw, names := newGateway(t, assemble.Spec{SLOMonitor: true}, testCluster{}, Options{Speedup: 50000})
	defer gw.Shutdown(context.Background())
	h := gw.Handler()
	for i := 0; i < 4; i++ {
		w := postCompletion(h, fmt.Sprintf(
			`{"model":%q,"input_tokens":8,"max_tokens":3,"stream":true}`, names[i%len(names)]))
		if w.Code != http.StatusOK {
			t.Fatalf("completion %d: status %d", i, w.Code)
		}
	}

	w := get(h, "/debug/trace?last=50")
	if w.Code != http.StatusOK {
		t.Fatalf("/debug/trace: status %d: %s", w.Code, w.Body.String())
	}
	var tr struct {
		EventsTotal uint64 `json:"events_total"`
		Events      []struct {
			Kind string `json:"kind"`
		} `json:"events"`
		Requests []struct {
			ID    string `json:"id"`
			Done  bool   `json:"done"`
			Spans []struct {
				Name string `json:"name"`
			} `json:"spans"`
		} `json:"requests"`
		SwitchesTotal uint64 `json:"switches_total"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.EventsTotal == 0 || len(tr.Events) == 0 || len(tr.Requests) != 4 {
		t.Fatalf("trace snapshot empty: total=%d events=%d requests=%d",
			tr.EventsTotal, len(tr.Events), len(tr.Requests))
	}
	if tr.SwitchesTotal == 0 {
		t.Fatal("4 models on 2+2 GPUs produced no switches")
	}

	id := tr.Requests[0].ID
	w = get(h, "/debug/requests/"+id)
	if w.Code != http.StatusOK {
		t.Fatalf("/debug/requests/%s: status %d", id, w.Code)
	}
	var rt struct {
		ID    string `json:"id"`
		Done  bool   `json:"done"`
		Spans []struct {
			Name string `json:"name"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &rt); err != nil {
		t.Fatal(err)
	}
	if rt.ID != id || !rt.Done {
		t.Fatalf("request timeline = %+v", rt)
	}
	have := map[string]bool{}
	for _, s := range rt.Spans {
		have[s.Name] = true
	}
	for _, want := range []string{"queue-wait", "prefill"} {
		if !have[want] {
			t.Errorf("request %s missing span %q (has %v)", id, want, rt.Spans)
		}
	}
	if w := get(h, "/debug/requests/nope"); w.Code != http.StatusNotFound {
		t.Fatalf("unknown request: status %d, want 404", w.Code)
	}

	w = get(h, "/debug/gpus?window=1m")
	if w.Code != http.StatusOK {
		t.Fatalf("/debug/gpus: status %d: %s", w.Code, w.Body.String())
	}
	var gp struct {
		Instances []struct {
			Instance string `json:"instance"`
		} `json:"instances"`
		Engines []struct {
			Device      string  `json:"device"`
			Engine      string  `json:"engine"`
			Utilization float64 `json:"utilization"`
		} `json:"engines"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &gp); err != nil {
		t.Fatal(err)
	}
	if len(gp.Instances) != 4 || len(gp.Engines) != 12 {
		t.Fatalf("gpus = %d instances / %d engines, want 4/12", len(gp.Instances), len(gp.Engines))
	}
	for _, e := range gp.Engines {
		if e.Utilization < 0 || e.Utilization > 1 {
			t.Errorf("%s/%s utilization %v out of [0,1]", e.Device, e.Engine, e.Utilization)
		}
	}
	if w := get(h, "/debug/gpus?window=bogus"); w.Code != http.StatusBadRequest {
		t.Fatalf("bad window: status %d, want 400", w.Code)
	}

	w = get(h, "/debug/perfetto")
	if w.Code != http.StatusOK {
		t.Fatalf("/debug/perfetto: status %d", w.Code)
	}
	if err := obs.ValidatePerfetto(bytes.NewReader(w.Body.Bytes())); err != nil {
		t.Fatalf("perfetto export invalid: %v", err)
	}
}
