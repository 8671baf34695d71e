package aegaeon_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"aegaeon"
	"aegaeon/internal/obs"
)

// TestPerfettoExportEndToEnd runs a real multi-model serve with tracing on
// and checks the exported Chrome trace: it validates structurally, has a
// track per device engine and per request, and every completed switch
// carries its stage-level cost breakdown.
func TestPerfettoExportEndToEnd(t *testing.T) {
	sys, err := aegaeon.New(aegaeon.Config{
		PrefillGPUs: 1, DecodeGPUs: 2, NumModels: 4, Tracing: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	trace := sys.GenerateTrace(aegaeon.TraceSpec{RatePerModel: 0.1, Horizon: 2 * time.Minute})
	rep, err := sys.Serve(trace)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Switches == 0 {
		t.Fatal("multi-model run produced no switches; the trace exercises nothing")
	}

	c := sys.Collector()
	if c == nil {
		t.Fatal("Tracing config did not install a collector")
	}
	switches, total := c.Switches()
	if total == 0 || len(switches) == 0 {
		t.Fatal("collector recorded no switches")
	}
	for _, sw := range switches {
		if sw.End < sw.Start {
			continue // still in flight at end of run
		}
		if len(sw.Stages) == 0 {
			t.Errorf("switch %s %s->%s has no stage breakdown", sw.Instance, sw.From, sw.To)
		}
	}

	var buf bytes.Buffer
	if err := sys.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidatePerfetto(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("exported trace invalid: %v", err)
	}

	var f struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	engineTracks := map[string]bool{}
	deviceProcs, reqTracks, switchSlices := 0, 0, 0
	for _, ev := range f.TraceEvents {
		name, _ := ev.Args["name"].(string)
		switch {
		case ev.Ph == "M" && ev.Name == "process_name" && strings.HasPrefix(name, "gpu "):
			deviceProcs++
		case ev.Ph == "M" && ev.Name == "thread_name":
			switch name {
			case "compute", "h2d", "d2h":
				engineTracks[name] = true
			default:
				if strings.Contains(name, "(") { // "reqID (model)"
					reqTracks++
				}
			}
		case ev.Ph == "X" && strings.HasPrefix(ev.Name, "switch "):
			switchSlices++
		}
	}
	if deviceProcs != 3 {
		t.Errorf("device processes = %d, want 3 (1 prefill + 2 decode)", deviceProcs)
	}
	for _, e := range []string{"compute", "h2d", "d2h"} {
		if !engineTracks[e] {
			t.Errorf("no %s engine track", e)
		}
	}
	if reqTracks == 0 {
		t.Error("no per-request tracks")
	}
	if switchSlices == 0 {
		t.Error("no switch slices")
	}
}

// TestPerfettoKeepsEarlyFaults: a crash early in a long run must still be on
// the Perfetto fault track after token traffic has pushed it out of the flat
// event ring.
func TestPerfettoKeepsEarlyFaults(t *testing.T) {
	const crashAt = 20 * time.Second
	sys, err := aegaeon.New(aegaeon.Config{
		PrefillGPUs: 1, DecodeGPUs: 2, NumModels: 6, Tracing: true,
		Faults: "crash@20s:decode0",
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Serve(sys.GenerateTrace(aegaeon.TraceSpec{RatePerModel: 0.1, Horizon: 8 * time.Minute})); err != nil {
		t.Fatal(err)
	}
	ring := sys.Collector().Ring()
	if evs := ring.Events(); evs[0].At <= crashAt || ring.Total() <= 16384 {
		t.Fatalf("ring still reaches back to %v after %d events; the run does not wrap it past the crash",
			evs[0].At, ring.Total())
	}
	var buf bytes.Buffer
	if err := sys.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"name":"crash","ph":"i","ts":20000000,`) {
		t.Fatal("crash instant missing from the Perfetto fault track")
	}
}

// TestWritePerfettoWithoutTracing checks the export fails cleanly when the
// system was built without Config.Tracing.
func TestWritePerfettoWithoutTracing(t *testing.T) {
	sys, err := aegaeon.New(aegaeon.Config{PrefillGPUs: 1, DecodeGPUs: 1, NumModels: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Collector() != nil {
		t.Fatal("collector present without Tracing")
	}
	if err := sys.WritePerfetto(&bytes.Buffer{}); err == nil {
		t.Fatal("export without tracing did not error")
	}
}
