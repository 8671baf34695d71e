package aegaeon

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// fieldsReadOnlyByTests lists the struct fields declared under internal/ or
// cmd/ that no non-test file reads, each with a test that reads it.
var fieldsReadOnlyByTests = map[string]string{
	// §5.1–5.2's auto-scaling levels T0–T3: each counter is how its test
	// tells which stages a switch paid for.
	"engine.Stats.CacheMisses":  "TestCacheMissFetchesFromRegistry",
	"engine.Stats.GCPauses":     "TestUnoptimizedSwitchIsT0",
	"engine.Stats.PrefetchHits": "TestPrefetchHitNearInstant",
	"engine.Stats.Reinits":      "TestComponentReuseIsT1",
	"engine.Stats.PrefillJobs":  "TestPrefillAndDecodeTiming",

	// The prefix cache's reuse path: which requests reused how much.
	"engine.Stats.PrefixReuses":  "TestPrefixReuseShortensTTFT",
	"core.Request.PrefixMatched": "TestPrefixReuseShortensTTFT",

	// §5.3's KV transfers: swap counts and the control-plane cost of
	// the unified KV cache's move lists.
	"kvcache.Stats.SwapOuts":      "TestStatsAccumulate",
	"kvcache.Stats.SwapIns":       "TestStatsAccumulate",
	"kvcache.Stats.ControlOps":    "TestStatsAccumulate",
	"kvcache.Stats.AbortReclaims": "TestAbortWhileQueuedReleasesEverything",

	// Generator output: a session's turns are how the tests check that
	// each turn's prompt extends the last.
	"workload.Request.SessionID": "TestMultiTurnGrowsPrefixes",

	// Set only by bench/perf/gateway.go's hand wiring; they go when that
	// caller moves onto assemble.Build.
	"cluster.Config.StoreSeed": "TestStoreSeedHasNoEffect",
	"gateway.Options.Speedup":  "TestSpeedupOptionHasNoEffect",
}

// TestFieldsHaveReaders fails on every struct field declared in a non-test
// file under internal/ or cmd/ that no non-test file of this module or of
// the bench module reads. Writing a field is not reading it: an assignment
// or increment target, an element of one (s.f[k] = v), or a
// composite-literal key leaves it unread. Besides a selector outside a
// write, three things count as reads:
//   - a json tag, because encoding reads the field by reflection;
//   - the struct being a map key, because hashing reads every field;
//   - a selector the stubbed checker cannot resolve, which reads every
//     field of its name, so a field some code reads is never reported.
//
// A field of a generic type is read through any of its instantiations.
// Embedded fields are not scanned: promotion reads them.
func TestFieldsHaveReaders(t *testing.T) {
	m := loadModule(t)
	fields := m.declaredFields()
	read := m.readFields(fields)
	found := map[string]gateItem{}
	for id, v := range fields {
		found[id] = gateItem{v, read[v]}
	}
	checkAllowlist(t, m, fieldsReadOnlyByTests, found, readerGate)
}

var readerGate = gate{
	kind: "field", role: "reader", verb: "reads",
	fix: "delete it, or allowlist the test that reads it",
}

// declaredFields returns the named fields of every struct type written in a
// non-test file under internal/ or cmd/, by "pkg.Type.Field". A field of an
// anonymous struct is named by the fields, types and functions enclosing it:
// "pkg.Type.Outer.Field" or "pkg.Func.Field".
func (m *moduleSrc) declaredFields() map[string]*types.Var {
	out := map[string]*types.Var{}
	for _, p := range m.order {
		if !strings.HasPrefix(p.path, "aegaeon/internal/") && !strings.HasPrefix(p.path, "aegaeon/cmd/") {
			continue
		}
		for _, f := range p.files {
			var walk func(n ast.Node, qual string)
			walk = func(n ast.Node, qual string) {
				ast.Inspect(n, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.FuncDecl:
						name := n.Name.Name
						if n.Recv != nil {
							if tn := recvTypeName(p.info, n); tn != nil {
								name = tn.Name() + "." + name
							}
						}
						if n.Body != nil {
							walk(n.Body, qual+name+".")
						}
						return false
					case *ast.TypeSpec:
						walk(n.Type, qual+n.Name.Name+".")
						return false
					case *ast.StructType:
						for _, fl := range n.Fields.List {
							for _, id := range fl.Names {
								if v, ok := p.info.Defs[id].(*types.Var); ok && id.Name != "_" {
									out[path.Base(p.path)+"."+qual+id.Name] = v
								}
								walk(fl.Type, qual+id.Name+".")
							}
							if len(fl.Names) == 0 {
								walk(fl.Type, qual)
							}
						}
						return false
					}
					return true
				})
			}
			walk(f, "")
		}
	}
	return out
}

// readFields returns the fields some non-test file reads, under
// TestFieldsHaveReaders' rules.
func (m *moduleSrc) readFields(fields map[string]*types.Var) map[*types.Var]bool {
	byName := map[string][]*types.Var{}
	read := map[*types.Var]bool{}
	for _, v := range fields {
		byName[v.Name()] = append(byName[v.Name()], v)
	}
	// readStruct marks every field of a struct type read.
	var readStruct func(t types.Type)
	readStruct = func(t types.Type) {
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			return
		}
		for i := 0; i < st.NumFields(); i++ {
			if v := st.Field(i).Origin(); !read[v] {
				read[v] = true
				readStruct(v.Type())
			}
		}
	}
	for _, p := range m.order {
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				st, ok := n.(*ast.StructType)
				if !ok {
					return true
				}
				for _, fl := range st.Fields.List {
					if fl.Tag == nil {
						continue
					}
					if tag, err := strconv.Unquote(fl.Tag.Value); err == nil && reflect.StructTag(tag).Get("json") != "" {
						for _, id := range fl.Names {
							if v, ok := p.info.Defs[id].(*types.Var); ok {
								read[v] = true
							}
						}
					}
				}
				return true
			})
		}
		for _, tv := range p.info.Types {
			if mt, ok := tv.Type.(*types.Map); ok {
				readStruct(mt.Key())
			}
		}
		// written holds the selectors that only name an assignment or
		// increment target, or the map or slice whose element is one.
		written := map[*ast.SelectorExpr]bool{}
		target := func(x ast.Expr) {
			x = ast.Unparen(x)
			for ix, ok := x.(*ast.IndexExpr); ok; ix, ok = x.(*ast.IndexExpr) {
				x = ast.Unparen(ix.X)
			}
			if sel, ok := x.(*ast.SelectorExpr); ok {
				written[sel] = true
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					if n.Tok != token.DEFINE {
						for _, lhs := range n.Lhs {
							target(lhs)
						}
					}
				case *ast.IncDecStmt:
					target(n.X)
				}
				return true
			})
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || written[sel] || isPkgQualified(p.info, sel) {
					return true
				}
				if s := p.info.Selections[sel]; s != nil {
					if v, ok := s.Obj().(*types.Var); ok {
						read[v.Origin()] = true
					}
					return true
				}
				for _, v := range byName[sel.Sel.Name] {
					read[v] = true
				}
				return true
			})
		}
	}
	return read
}
