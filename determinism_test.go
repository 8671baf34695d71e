package aegaeon

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
	"testing"
)

// randConstructors are the math/rand names that build or type a seeded
// generator instead of drawing from the global one.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
	"Rand": true, "Source": true, "Source64": true, "Zipf": true, "PCG": true, "ChaCha8": true,
}

// wallClockReads are the time functions that read or wait on the wall
// clock.
var wallClockReads = map[string]bool{
	"Now": true, "Since": true, "Until": true, "NewTimer": true, "NewTicker": true,
	"After": true, "AfterFunc": true, "Tick": true,
}

// wallClockAllowed lists where internal/ may read the wall clock, by file,
// package directory or "file:func", each with its reason.
var wallClockAllowed = map[string]string{
	"internal/sim/realtime.go": "the live driver paces virtual time against the wall clock",
	"internal/gateway":         "the HTTP side's rate limiter, circuit breakers, brownout ticker and response timestamps",
}

// TestNoGlobalRandOrWallClock holds the simulation to its seeds: no
// non-test file of the module draws from math/rand's global generator, and
// no non-test file under internal/ reads the wall clock outside
// wallClockAllowed. Either would make a seeded run differ between
// processes. An allowed site that no longer reads the wall clock fails too.
func TestNoGlobalRandOrWallClock(t *testing.T) {
	m := loadModule(t)
	used := map[string]bool{}
	for _, p := range m.order {
		for _, f := range p.files {
			file := filepath.ToSlash(m.fset.Position(f.Pos()).Filename)
			for _, d := range f.Decls {
				site := file
				if fd, ok := d.(*ast.FuncDecl); ok {
					site += ":" + fd.Name.Name
				}
				ast.Inspect(d, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					id, ok := sel.X.(*ast.Ident)
					if !ok {
						return true
					}
					pn, ok := p.info.Uses[id].(*types.PkgName)
					if !ok {
						return true
					}
					switch path, name := pn.Imported().Path(), sel.Sel.Name; {
					case (path == "math/rand" || path == "math/rand/v2") && !randConstructors[name]:
						t.Errorf("%s: rand.%s draws from the global generator; draw from a *rand.Rand seeded from the run's seed",
							m.fset.Position(sel.Pos()), name)
					case path == "time" && wallClockReads[name] && strings.HasPrefix(file, "internal/"):
						if key := wallClockEntry(site); key != "" {
							used[key] = true
						} else {
							t.Errorf("%s: time.%s reads the wall clock; simulation code reads the sim.Engine's virtual clock",
								m.fset.Position(sel.Pos()), name)
						}
					}
					return true
				})
			}
		}
	}
	for key, reason := range wallClockAllowed {
		if !used[key] {
			t.Errorf("wall-clock entry %s (%s) no longer reads the wall clock; drop its entry", key, reason)
		}
	}
}

// wallClockEntry returns the wallClockAllowed key that covers a "file" or
// "file:func" site, or "" when none does.
func wallClockEntry(site string) string {
	file, _, _ := strings.Cut(site, ":")
	for _, key := range []string{site, file, filepath.ToSlash(filepath.Dir(file))} {
		if _, ok := wallClockAllowed[key]; ok {
			return key
		}
	}
	return ""
}

// mapOrderSumAllowed lists the float sums over map order that
// TestNoFloatSumInMapOrder lets stand, by "file:func", each with its reason.
var mapOrderSumAllowed = map[string]string{}

// TestNoFloatSumInMapOrder holds float sums to a fixed order: no non-test
// file under internal/ adds to or subtracts from a float declared outside a
// range over a map, inside that range. Float addition does not associate,
// so such a sum's last bits follow map order, which differs between
// processes. An allowed site with no such sum fails too.
func TestNoFloatSumInMapOrder(t *testing.T) {
	m := loadModule(t)
	used := map[string]bool{}
	seen := map[token.Pos]bool{}
	for _, p := range m.order {
		for _, f := range p.files {
			file := filepath.ToSlash(m.fset.Position(f.Pos()).Filename)
			if !strings.HasPrefix(file, "internal/") {
				continue
			}
			for _, d := range f.Decls {
				site := file
				if fd, ok := d.(*ast.FuncDecl); ok {
					site += ":" + fd.Name.Name
				}
				ast.Inspect(d, func(n ast.Node) bool {
					rs, ok := n.(*ast.RangeStmt)
					if !ok || !isMap(p.info.TypeOf(rs.X)) {
						return true
					}
					ast.Inspect(rs.Body, func(n ast.Node) bool {
						as, ok := n.(*ast.AssignStmt)
						if !ok || (as.Tok != token.ADD_ASSIGN && as.Tok != token.SUB_ASSIGN) ||
							seen[as.Pos()] || !isFloat(p.info.TypeOf(as.Lhs[0])) {
							return true
						}
						root := rootIdent(as.Lhs[0])
						if root == nil {
							return true
						}
						obj := p.info.ObjectOf(root)
						if obj == nil || (obj.Pos() >= rs.Pos() && obj.Pos() < rs.End()) {
							return true
						}
						seen[as.Pos()] = true
						if _, ok := mapOrderSumAllowed[site]; ok {
							used[site] = true
							return true
						}
						t.Errorf("%s: %s %s in map order; range over sorted keys or a fixed order",
							m.fset.Position(as.Pos()), root.Name, as.Tok)
						return true
					})
					return true
				})
			}
		}
	}
	for key, reason := range mapOrderSumAllowed {
		if !used[key] {
			t.Errorf("map-order sum entry %s (%s) no longer sums in map order; drop its entry", key, reason)
		}
	}
}

func isMap(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// rootIdent returns the variable an assignment target selects or indexes
// into, or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}
