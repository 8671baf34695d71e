package aegaeon

import (
	"bufio"
	"flag"
	"fmt"
	"go/ast"
	"go/types"
	"io"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var reachProfile = flag.String("reach.profile", "",
	"merged text coverage profile (go tool covdata textfmt) of coverage-built command and example runs; TestReach skips without one")

// unreachedByEntryPoints lists the non-test functions in the root package
// and internal/ that no command or example run in CI executes, each with
// the reason it stays: the test that needs it, its bench/ caller, the paper
// table it reproduces, or the ROADMAP item that will give it a caller.
// exportsUsedOnlyByTests entries need no second entry here.
var unreachedByEntryPoints = map[string]string{
	// Library surface of the facade that no command or example calls.
	"aegaeon.Catalog":          "TestCatalogExposed",
	"aegaeon.MarketModels":     "TestCustomModelsAndSLO",
	"aegaeon.System.Collector": "TestPerfettoExportEndToEnd",
	"aegaeon.System.Fleet":     "bench/perf/batch.go's readPaths",
	"aegaeon.System.Monitor":   "bench/perf/batch.go's readPaths",

	// Failure paths no CI run can drive without depending on wall-clock
	// timing in a live gateway, which would make this list unstable.
	"gateway.breaker.failure": "TestBreakerOpensAfterPartitionLoss: a live request fails " +
		"only when its instance is lost with no survivor, and no gateway flag injects faults",
	"gateway.sseFrames.errorFrame": "TestStreamErrorFramesAreJSON: the same lost instance, " +
		"or an overload reap whose timing follows the wall clock",

	// Capacity paths no CI-length run fills.
	"memory.RegionAlloc.FreeBytes": "TestColocateEvictsLRU: colocation reads it only when " +
		"eviction leaves a model-cache region too fragmented to fit the next model",
	"prefixcache.Cache.evictHostOne": "TestEvictionNeverReclaimsPinned: the host tier's cap " +
		"is a share of the CPU KV pool, which no CLI or bench run fills (host_evictions 0)",
	"prefixcache.Cache.removeEntry": "TestEvictionNeverReclaimsPinned: host-tier eviction, as above",
	"decision.Journal.release": "TestJournalSteadyStateAllocs: a record's slot is released " +
		"only when the 16,384-record ring rotates past it or its chain is evicted (past 4,096 " +
		"chains) or overflows (past 256 records), which no CLI run fills",
}

// TestReach fails on every non-test function declared in the root package
// or internal/ that the coverage profile given by -reach.profile never
// executed, unless it is allowlisted in exportsUsedOnlyByTests or
// unreachedByEntryPoints, or is a method exempt under TestExportsHaveCallers'
// rules (stdlibMethods, or it implements a module interface). An
// unreachedByEntryPoints entry whose function ran, or no longer exists,
// fails too. CI's smoke job builds every command and example with
// -cover -coverpkg=aegaeon/..., runs them, merges their counters and runs
// this test on the result; without a profile it skips.
func TestReach(t *testing.T) {
	if *reachProfile == "" {
		t.Skip("no -reach.profile given")
	}
	f, err := os.Open(*reachProfile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	hits, err := readCoverProfile(f)
	if err != nil {
		t.Fatal(err)
	}
	m := loadModule(t)
	funcs := m.productionFuncs()
	unreached := map[string]bool{}
	for _, id := range unreachedFuncs(funcs, hits) {
		unreached[id] = true
	}
	ifaces, named := m.typeDecls()
	have := map[string]bool{}
	var missing []string
	for _, fn := range funcs {
		have[fn.id] = true
		reason, listed := unreachedByEntryPoints[fn.id]
		_, testOnly := exportsUsedOnlyByTests[fn.id]
		switch {
		case !unreached[fn.id] && listed:
			t.Errorf("%s (allowlisted: %s) now runs in an entry point; drop its entry", fn.id, reason)
		case unreached[fn.id] && !listed && !testOnly && !(&export{obj: fn.obj}).exempt(ifaces, named):
			missing = append(missing, fn.id+" ("+m.fset.Position(fn.decl.Pos()).String()+")")
		}
	}
	for id, reason := range unreachedByEntryPoints {
		if !have[id] {
			t.Errorf("allowlisted function %s (%s) no longer exists; drop its entry", id, reason)
		}
	}
	sort.Strings(missing)
	for _, id := range missing {
		t.Errorf("no entry point runs %s: delete it, drive it from a CI run that checks its effect, or allowlist it with a reason", id)
	}
}

// TestReachMapsProfileToFunctions checks TestReach's profile-to-function
// mapping on a synthetic profile: one block per top-level statement of
// every production function, all hit but those of one unexported function
// and one method, which must be exactly the functions reported.
func TestReachMapsProfileToFunctions(t *testing.T) {
	m := loadModule(t)
	funcs := m.productionFuncs()
	want := []string{"core.System.Abort", "workload.lognormClip"}
	var b strings.Builder
	b.WriteString("mode: set\n")
	found := 0
	for _, fn := range funcs {
		count := 1
		if fn.id == want[0] || fn.id == want[1] {
			count = 0
			found++
		}
		for _, st := range fn.decl.Body.List {
			from, to := m.fset.Position(st.Pos()), m.fset.Position(st.End())
			fmt.Fprintf(&b, "%s:%d.%d,%d.%d 1 %d\n", fn.file, from.Line, from.Column, to.Line, to.Column, count)
		}
	}
	if found != len(want) {
		t.Fatalf("found %d of the functions %v", found, want)
	}
	hits, err := readCoverProfile(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got := unreachedFuncs(funcs, hits); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("unreached = %v, want %v", got, want)
	}
}

// prodFunc is one function or method declared in a non-test file.
type prodFunc struct {
	id   string // "pkg.Name" or "pkg.Type.Method", as exportsUsedOnlyByTests keys it
	file string // import path of the package plus file name, as profiles name it
	decl *ast.FuncDecl
	obj  *types.Func
	// body spans the braces of the function's body, as line and column.
	body [2]coverPos
}

// coverPos is a line and a byte column, both from 1, as profiles and
// go/token count them.
type coverPos struct{ line, col int }

func (a coverPos) before(b coverPos) bool {
	return a.line < b.line || a.line == b.line && a.col < b.col
}

// productionFuncs returns every function and method with a body declared in
// a non-test file of the root package or internal/.
func (m *moduleSrc) productionFuncs() []prodFunc {
	var out []prodFunc
	for _, p := range m.order {
		if p.path != "aegaeon" && !strings.HasPrefix(p.path, "aegaeon/internal/") {
			continue
		}
		for _, f := range p.files {
			file := path.Join(p.path, filepath.Base(m.fset.Position(f.Pos()).Filename))
			for _, d := range f.Decls {
				d, ok := d.(*ast.FuncDecl)
				if !ok || d.Body == nil {
					continue
				}
				qual := ""
				if d.Recv != nil {
					tn := recvTypeName(p.info, d)
					if tn == nil {
						continue
					}
					qual = tn.Name() + "."
				}
				obj, _ := p.info.Defs[d.Name].(*types.Func)
				from, to := m.fset.Position(d.Body.Lbrace), m.fset.Position(d.Body.Rbrace)
				out = append(out, prodFunc{path.Base(p.path) + "." + qual + d.Name.Name, file, d, obj,
					[2]coverPos{{from.Line, from.Column}, {to.Line, to.Column}}})
			}
		}
	}
	return out
}

// coverBlock is one block of a text coverage profile: its start position
// and whether any run executed it.
type coverBlock struct {
	start coverPos
	hit   bool
}

// readCoverProfile parses a text coverage profile into its blocks by file.
func readCoverProfile(r io.Reader) (map[string][]coverBlock, error) {
	out := map[string][]coverBlock{}
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if n == 1 && strings.HasPrefix(line, "mode:") {
			continue
		}
		// file:startLine.startCol,endLine.endCol numStmts count
		colon := strings.LastIndexByte(line, ':')
		fields := strings.Fields(line[colon+1:])
		var start []string
		if colon > 0 && len(fields) == 3 {
			start = strings.Split(strings.Split(fields[0], ",")[0], ".")
		}
		if len(start) != 2 {
			return nil, fmt.Errorf("profile line %d: malformed %q", n, line)
		}
		l, err1 := strconv.Atoi(start[0])
		c, err2 := strconv.Atoi(start[1])
		count, err3 := strconv.Atoi(fields[2])
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("profile line %d: malformed %q", n, line)
		}
		out[line[:colon]] = append(out[line[:colon]], coverBlock{coverPos{l, c}, count > 0})
	}
	return out, sc.Err()
}

// unreachedFuncs returns, sorted, the ids of the functions in which no hit
// block starts. A function of a file the profile does not name is
// unreached: no instrumented binary linked its package.
func unreachedFuncs(funcs []prodFunc, hits map[string][]coverBlock) []string {
	var out []string
	for _, fn := range funcs {
		reached := false
		for _, b := range hits[fn.file] {
			reached = reached || b.hit && !b.start.before(fn.body[0]) && !fn.body[1].before(b.start)
		}
		if !reached {
			out = append(out, fn.id)
		}
	}
	sort.Strings(out)
	return out
}
