package aegaeon

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"sort"
	"strings"
	"testing"
)

// exportsUsedOnlyByTests lists the exported names in internal/ that no
// non-test file uses, each with a test that needs it. A name only its own
// package's tests need belongs in that package's export_test.go instead.
var exportsUsedOnlyByTests = map[string]string{
	// Table 2's event API, kept as the paper describes it.
	"gpu.Event.IPCHandle": "TestStreamWaitEvent",
	"gpu.OpenEventHandle": "TestStreamWaitEvent",
	// Theorem 3.1's bound; the experiments do not reproduce it yet.
	"theory.PoolingBound": "TestPoolingBoundAnchor",

	// Read by other packages' tests.
	"core.System.LiveInFlight":     "TestClientDisconnectAbortsRequest",
	"core.System.ModelID":          "TestModelIDsAcrossDeployments",
	"engine.Engine.Residents":      "TestColocationServesStrictSLO",
	"fleetobs.Ledger.RawBusy":      "TestFleetLedgerMatchesGPUUtilization",
	"fleetobs.Ledger.StateSeconds": "TestFleetLedgerMatchesGPUUtilization",
	"gpu.Device.Utilization":       "TestFleetLedgerMatchesGPUUtilization",
	"gpu.Event.CompletedAt":        "TestSwapInWaitsForSwapOut",
	"metastore.Store.GetNow":       "TestLeaseExpiryTriggersFailover",
	"metastore.Store.Keys":         "TestHealthIsOptIn",
	"metrics.Breakdown.Total":      "FuzzCoalescedRun",
	"obs.Collector.ModelName":      "TestModelIDsAcrossDeployments",
	"obs.Ring.Count":               "TestSchedulerTracing",
	"sim.Engine.Pending":           "TestSubmitQueuesOneArrival",
	"sim.Engine.Step":              "TestRunBoundaryInstant",
	"slomon.Monitor.Config":        "TestBuild",
}

// stdlibMethods are method names the standard library's interfaces declare
// (fmt.Stringer, error, sort.Interface, heap.Interface, json.Marshaler,
// http.Handler). The checker stubs the standard library, so it cannot see
// those interfaces; a method of one of these names is exempt.
var stdlibMethods = map[string]bool{
	"String": true, "Error": true, "Len": true, "Less": true, "Swap": true,
	"Push": true, "Pop": true, "MarshalJSON": true, "ServeHTTP": true,
}

// TestExportsHaveCallers fails on every exported package-level func, type,
// var and const, and every exported method, declared in a non-test file
// under internal/ that no non-test file of this module or of the bench
// module references outside the declaration itself. A type's own methods
// are part of its declaration. Struct fields are TestFieldsHaveReaders'
// business.
//
// A method is exempt when a module type that selects it, directly or
// through an embedded field, implements a module interface declaring it
// (types.Implements, not a name match), or when its name is one of
// stdlibMethods. The scan fails closed: a call the stubbed checker cannot
// resolve is not seen, so its method is reported until it is allowlisted.
func TestExportsHaveCallers(t *testing.T) {
	m := loadModule(t)
	exports := m.internalExports()
	used := m.exportUses(exports)
	ifaces, named := m.typeDecls()

	found := map[string]gateItem{}
	for id, e := range exports {
		found[id] = gateItem{e.obj, used[e.obj] || e.exempt(ifaces, named)}
	}
	checkAllowlist(t, m, exportsUsedOnlyByTests, found, callerGate)
}

var callerGate = gate{
	kind: "export", role: "caller", verb: "uses",
	fix: "delete it, move it into export_test.go, or allowlist the test that needs it",
}

// gate words one reach gate's failures: the kind of name it scans, the
// role a use gives its user ("caller"), the verb for a use ("uses"), and
// how to fix an unused name.
type gate struct{ kind, role, verb, fix string }

// gateItem is one name a reach gate scanned: its object, and whether some
// non-test file uses it the way the gate counts.
type gateItem struct {
	obj  types.Object
	used bool
}

// checkAllowlist holds the rule every reach gate shares: an allowlist maps
// each name no non-test file uses to a test that needs it. It fails on an
// unused name that is not listed, a listed name that is now used or no
// longer exists, and a listed name that no test file declaring its test
// mentions.
func checkAllowlist(t *testing.T, m *moduleSrc, allow map[string]string, found map[string]gateItem, g gate) {
	t.Helper()
	mentions := m.testIdents()
	var unused []string
	for id, it := range found {
		test, listed := allow[id]
		switch {
		case it.used && listed:
			t.Errorf("%s (allowlisted for %s) now has a non-test %s; drop its entry", id, test, g.role)
		case !it.used && !listed:
			unused = append(unused, id+" ("+m.fset.Position(it.obj.Pos()).String()+")")
		case listed && !mentions[test][it.obj.Name()]:
			t.Errorf("%s is allowlisted for %s, but no test file declaring %s mentions %s",
				id, test, test, it.obj.Name())
		}
	}
	for id, test := range allow {
		if _, ok := found[id]; !ok {
			t.Errorf("allowlisted %s %s (for %s) no longer exists; drop its entry", g.kind, id, test)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("no non-test file %s %s: %s", g.verb, u, g.fix)
	}
}

// export is one exported name declared in internal/.
type export struct {
	obj types.Object
	// decl spans the declaration; a type's span includes its methods.
	decl []span
}

type span struct{ pos, end token.Pos }

// exempt reports whether e is a method that an interface declares: some
// module type whose method set selects it implements a module interface
// with a method of its name.
func (e *export) exempt(ifaces []*types.Interface, named []types.Type) bool {
	fn, ok := e.obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil {
		return false
	}
	if stdlibMethods[fn.Name()] {
		return true
	}
	for _, it := range ifaces {
		if !declares(it, fn.Name()) {
			continue
		}
		for _, t := range named {
			for _, t := range []types.Type{t, types.NewPointer(t)} {
				if sel, _, _ := types.LookupFieldOrMethod(t, false, fn.Pkg(), fn.Name()); sel == fn && types.Implements(t, it) {
					return true
				}
			}
		}
	}
	return false
}

// declares reports whether the interface has a method of the given name.
func declares(it *types.Interface, name string) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if it.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// internalExports returns the exported names declared in non-test files
// under internal/, by "pkg.Name" or "pkg.Type.Method".
func (m *moduleSrc) internalExports() map[string]*export {
	out := map[string]*export{}
	byObj := map[types.Object]*export{}
	add := func(p *modulePkg, id *ast.Ident, n ast.Node, qual string) {
		if obj := p.info.Defs[id]; obj != nil && id.IsExported() {
			e := &export{obj: obj, decl: []span{{n.Pos(), n.End()}}}
			out[path.Base(p.path)+"."+qual+id.Name] = e
			byObj[obj] = e
		}
	}
	for _, p := range m.order {
		if !strings.HasPrefix(p.path, "aegaeon/internal/") {
			continue
		}
		var methods []*ast.FuncDecl
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						add(p, d.Name, d, "")
					} else {
						methods = append(methods, d)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							add(p, s.Name, s, "")
						case *ast.ValueSpec:
							for _, n := range s.Names {
								add(p, n, s, "")
							}
						}
					}
				}
			}
		}
		for _, d := range methods {
			tn := recvTypeName(p.info, d)
			if tn == nil {
				continue
			}
			add(p, d.Name, d, tn.Name()+".")
			if e := byObj[tn]; e != nil {
				e.decl = append(e.decl, span{d.Pos(), d.End()})
			}
		}
	}
	return out
}

// recvTypeName returns the named type a method declaration's receiver
// names.
func recvTypeName(info *types.Info, d *ast.FuncDecl) *types.TypeName {
	x := d.Recv.List[0].Type
	if s, ok := x.(*ast.StarExpr); ok {
		x = s.X
	}
	switch ix := x.(type) {
	case *ast.IndexExpr:
		x = ix.X
	case *ast.IndexListExpr:
		x = ix.X
	}
	id, ok := x.(*ast.Ident)
	if !ok {
		return nil
	}
	tn, _ := info.Uses[id].(*types.TypeName)
	return tn
}

// exportUses returns the exports some non-test file references outside
// their own declarations.
func (m *moduleSrc) exportUses(exports map[string]*export) map[types.Object]bool {
	byObj := map[types.Object]*export{}
	for _, e := range exports {
		byObj[e.obj] = e
	}
	used := map[types.Object]bool{}
	for _, p := range m.order {
		for id, obj := range p.info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			e := byObj[obj]
			if e == nil || used[obj] {
				continue
			}
			inside := false
			for _, s := range e.decl {
				inside = inside || s.pos <= id.Pos() && id.Pos() < s.end
			}
			used[obj] = !inside
		}
	}
	return used
}

// typeDecls returns the module's package-level interfaces with methods, and
// its other package-level types, declared in non-test files. Generic types
// are left out.
func (m *moduleSrc) typeDecls() (ifaces []*types.Interface, named []types.Type) {
	for _, p := range m.order {
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if n, ok := tn.Type().(*types.Named); !ok || n.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				if it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			} else {
				named = append(named, tn.Type())
			}
		}
	}
	return ifaces, named
}
