package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"aegaeon/internal/gpu"
	"aegaeon/internal/sim"
)

// buildCollector drives a collector through a small synthetic serving episode
// on a real simulated device: two requests on two models with one attributed
// switch between them.
func buildCollector(t testing.TB) *Collector {
	t.Helper()
	se := sim.NewEngine(1)
	d := gpu.NewDevice(se, "prefill0")
	c := New(Options{})
	c.ObserveDevice(d)
	s := d.NewStream("s")

	c.NameModel(1, "m1")
	c.NameModel(2, "m2")
	h1 := c.RequestArrived("r1", "m1", 0)
	c.PrefillStart("prefill0", "r1", h1, ms(5))
	s.SubmitOp(gpu.Compute, 20*time.Millisecond, gpu.OpInfo{Kind: gpu.OpPrefill, Model: 1, Request: "r1"})
	se.Run()
	c.PrefillDone("prefill0", "r1", h1, ms(25))
	c.Token(h1, ms(25))

	h2 := c.RequestArrived("r2", "m2", ms(10))
	c.BeginSwitch("prefill0", "m1", "m2", ms(25), true)
	c.SwitchStage("prefill0", "weight-load", ms(25), ms(300))
	c.SwitchVictims("prefill0", []string{"r2"})
	c.EndSwitch("prefill0", ms(320))
	c.PrefillStart("prefill0", "r2", h2, ms(320))
	c.PrefillDone("prefill0", "r2", h2, ms(340))
	c.Token(h2, ms(340))
	c.RequestDone("r1", ms(400))
	c.RequestDone("r2", ms(400))
	return c
}

func TestWritePerfettoValidatesAndHasTracks(t *testing.T) {
	c := buildCollector(t)
	var buf bytes.Buffer
	if err := c.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidatePerfetto(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("exported trace invalid: %v", err)
	}

	var f struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	var haveDeviceProc, haveEngineTrack, haveReqProc, haveReqTrack bool
	var haveSwitchSlice, haveStageSlice, haveToken, haveSpan bool
	for _, ev := range f.TraceEvents {
		switch {
		case ev.Ph == "M" && ev.Name == "process_name":
			name, _ := ev.Args["name"].(string)
			if strings.HasPrefix(name, "gpu ") {
				haveDeviceProc = true
			}
			if name == "requests" {
				haveReqProc = true
			}
		case ev.Ph == "M" && ev.Name == "thread_name":
			name, _ := ev.Args["name"].(string)
			if name == "compute" || name == "h2d" || name == "d2h" {
				haveEngineTrack = true
			}
			if strings.Contains(name, "(m1)") || strings.Contains(name, "(m2)") {
				haveReqTrack = true
			}
		case ev.Ph == "X" && strings.HasPrefix(ev.Name, "switch "):
			haveSwitchSlice = true
			if _, ok := ev.Args["stages_ms"]; !ok {
				t.Errorf("switch slice lacks stage breakdown: %+v", ev)
			}
			if _, ok := ev.Args["victims"]; !ok {
				t.Errorf("switch slice lacks victims: %+v", ev)
			}
		case ev.Ph == "X" && ev.Name == "weight-load":
			haveStageSlice = true
		case ev.Ph == "i" && ev.Name == "token":
			haveToken = true
		case ev.Ph == "X" && (ev.Name == "prefill" || ev.Name == "queue-wait"):
			haveSpan = true
		}
	}
	for name, ok := range map[string]bool{
		"device process": haveDeviceProc, "engine track": haveEngineTrack,
		"requests process": haveReqProc, "request track": haveReqTrack,
		"switch slice": haveSwitchSlice, "stage slice": haveStageSlice,
		"token instant": haveToken, "request span": haveSpan,
	} {
		if !ok {
			t.Errorf("export missing %s", name)
		}
	}
}

func TestWritePerfettoNilCollector(t *testing.T) {
	var c *Collector
	if err := c.WritePerfetto(&bytes.Buffer{}); err == nil {
		t.Fatal("nil collector export did not error")
	}
}

func TestValidatePerfettoRejectsMalformed(t *testing.T) {
	cases := []struct {
		name, in, wantErr string
	}{
		{"not json", "{", "does not parse"},
		{"empty", `{"traceEvents":[]}`, "empty"},
		{"unknown phase", `{"traceEvents":[{"name":"x","ph":"Z","ts":0,"pid":1,"tid":1}]}`, "unknown phase"},
		{"negative ts", `{"traceEvents":[{"name":"x","ph":"X","ts":-1,"dur":1,"pid":1,"tid":1}]}`, "negative"},
		{"unnamed slice", `{"traceEvents":[{"ph":"X","ts":0,"dur":1,"pid":1,"tid":1}]}`, "without a name"},
		{"meta without name", `{"traceEvents":[{"name":"process_name","ph":"M","pid":1,"tid":0}]}`, "args.name"},
		{"partial overlap", `{"traceEvents":[
			{"name":"a","ph":"X","ts":0,"dur":10,"pid":1,"tid":1},
			{"name":"b","ph":"X","ts":5,"dur":10,"pid":1,"tid":1}]}`, "partially overlaps"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := ValidatePerfetto(strings.NewReader(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestValidatePerfettoAcceptsNestedAndDisjoint(t *testing.T) {
	good := `{"traceEvents":[
		{"name":"outer","ph":"X","ts":0,"dur":100,"pid":1,"tid":1},
		{"name":"inner","ph":"X","ts":10,"dur":20,"pid":1,"tid":1},
		{"name":"later","ph":"X","ts":200,"dur":50,"pid":1,"tid":1},
		{"name":"other-track","ph":"X","ts":5,"dur":300,"pid":1,"tid":2},
		{"name":"tick","ph":"i","ts":42,"pid":1,"tid":1,"s":"t"},
		{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"p"}}]}`
	if err := ValidatePerfetto(strings.NewReader(good)); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
}
