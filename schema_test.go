package aegaeon

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"aegaeon/internal/assemble"
)

// schemaBreaks corrupts one invariant of each checked schema's decoded
// JSON, with the words its check's error must carry.
var schemaBreaks = map[string]struct {
	want  string
	apply func(snap map[string]any)
}{
	// The fleet scope's causes no longer sum to its missed tokens.
	"slo": {"cause counters sum", func(snap map[string]any) {
		fleet := snap["fleet"].(map[string]any)
		fleet["tokens_missed"] = bump(fleet["tokens_missed"])
	}},
	// A device's states no longer sum to its wall time.
	"fleet": {"states sum", func(snap map[string]any) {
		states := snap["devices"].([]any)[0].(map[string]any)["states_s"].(map[string]any)
		states["idle"] = bump(states["idle"])
	}},
	// A chain's first two records swap places.
	"why": {"out of order", func(snap map[string]any) {
		recs := snap["chains"].([]any)[0].(map[string]any)["records"].([]any)
		recs[0], recs[1] = recs[1], recs[0]
	}},
}

// bump adds one to a JSON number decoded with UseNumber.
func bump(v any) json.Number {
	f, err := v.(json.Number).Float64()
	if err != nil {
		panic(err)
	}
	return json.Number(strconv.FormatFloat(f+1, 'g', -1, 64))
}

// TestSnapshotSchemas holds every row of assemble.Schemas to its contract
// on a seeded, faulted run with all four subsystems on. Each snapshot
// marshals, passes its row's check and round-trips byte for byte. For each
// checked row, a copy with schema_version + 1 and a copy with the row's
// own invariant broken (schemaBreaks) each fail the check with an error
// naming the row, in process and through aegaeon-trace -mode
// validate-<name>. aegaeon-sim -report's names must be exactly the rows,
// and aegaeon-trace's validate-* modes exactly the checked ones.
func TestSnapshotSchemas(t *testing.T) {
	sys, err := New(Config{PrefillGPUs: 1, DecodeGPUs: 2, NumModels: 4, Seed: 1,
		SLOMonitor: true, FleetAccounting: true, Market: true, Decisions: true,
		Faults: "fetchslow@20s+20s*4,crash@40s:decode1"})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Serve(sys.GenerateTrace(TraceSpec{RatePerModel: 0.4, Horizon: time.Minute}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.SLO.Fleet.TokensMissed == 0 {
		t.Fatal("no missed tokens: the run leaves the cause counters nothing to sum")
	}
	bin := buildCommands(t, "aegaeon-sim", "aegaeon-trace")
	var names, checked []string
	for _, s := range assemble.Schemas {
		names = append(names, s.Name)
		if s.Checked() {
			checked = append(checked, "validate-"+s.Name)
		}
		if _, ok := schemaBreaks[s.Name]; ok != s.Checked() {
			t.Errorf("%s: has a check %v, has a break %v", s.Name, s.Checked(), ok)
		}
		t.Run(s.Name, func(t *testing.T) {
			snap := sys.Snapshot(s.Name)
			if snap == nil {
				t.Fatal("no snapshot")
			}
			data, err := json.Marshal(snap)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Check(data); err != nil {
				t.Fatalf("check: %v", err)
			}
			back := reflect.New(reflect.TypeOf(snap).Elem()).Interface()
			if err := json.Unmarshal(data, back); err != nil {
				t.Fatal(err)
			}
			if again, _ := json.Marshal(back); !bytes.Equal(again, data) {
				t.Fatal("snapshot does not round-trip")
			}
			if !s.Checked() {
				return
			}
			for _, c := range []struct {
				name, want string // want: "" when the copy must pass
				apply      func(map[string]any)
			}{
				{"decoded copy", "", func(map[string]any) {}},
				{"schema_version + 1", "schema", func(snap map[string]any) {
					snap["schema_version"] = bump(snap["schema_version"])
				}},
				{"invariant", schemaBreaks[s.Name].want, schemaBreaks[s.Name].apply},
			} {
				dec := json.NewDecoder(bytes.NewReader(data))
				dec.UseNumber()
				var m map[string]any
				if err := dec.Decode(&m); err != nil {
					t.Fatal(err)
				}
				c.apply(m)
				copied, err := json.Marshal(m)
				if err != nil {
					t.Fatal(err)
				}
				file := filepath.Join(t.TempDir(), s.Name+".json")
				if err := os.WriteFile(file, copied, 0o644); err != nil {
					t.Fatal(err)
				}
				out, cliErr := exec.Command(bin["aegaeon-trace"], "-mode", "validate-"+s.Name, file).CombinedOutput()
				err = s.Check(copied)
				switch {
				case c.want == "" && (err != nil || cliErr != nil):
					t.Errorf("%s: check %v; aegaeon-trace %v: %s", c.name, err, cliErr, out)
				case c.want != "" && (err == nil || !strings.Contains(err.Error(), s.Name) || !strings.Contains(err.Error(), c.want)):
					t.Errorf("%s: check error %v, want one naming %s and %q", c.name, err, s.Name, c.want)
				case c.want != "" && (cliErr == nil || !strings.Contains(string(out), err.Error())):
					t.Errorf("%s: aegaeon-trace %v: %s, want it to fail with %q", c.name, cliErr, out, err)
				}
			}
		})
	}
	if got := validList(t, bin["aegaeon-sim"], "-report", "bogus"); !slices.Equal(got, names) {
		t.Errorf("aegaeon-sim -report names %v, want the schemas %v", got, names)
	}
	var modes []string
	for _, m := range validList(t, bin["aegaeon-trace"], "-mode", "bogus") {
		if strings.HasPrefix(m, "validate-") {
			modes = append(modes, m)
		}
	}
	if !slices.Equal(modes, checked) {
		t.Errorf("aegaeon-trace validate modes %v, want %v", modes, checked)
	}
}

// buildCommands builds the named commands into a temporary directory and
// returns their paths by name.
func buildCommands(t *testing.T, names ...string) map[string]string {
	t.Helper()
	dir := t.TempDir()
	args := []string{"build", "-o", dir}
	paths := map[string]string{}
	for _, n := range names {
		args = append(args, "./cmd/"+n)
		paths[n] = filepath.Join(dir, n)
	}
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return paths
}

// validList runs a command on an argument it rejects and returns the
// comma-separated list in its "(valid: ...)" message.
func validList(t *testing.T, cmd string, args ...string) []string {
	t.Helper()
	out, _ := exec.Command(cmd, args...).CombinedOutput()
	_, list, ok := strings.Cut(string(out), "(valid: ")
	list, _, closed := strings.Cut(list, ")")
	if !ok || !closed {
		t.Fatalf("%s %v: no valid list in %q", cmd, args, out)
	}
	return strings.Split(list, ", ")
}
