package aegaeon

import (
	"go/ast"
	"go/build"
	"go/constant"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// configFieldsSetOnlyByTests lists the exported config fields that no
// non-test file sets, each with a test that sets it. A field that no test
// sets either has one value in use and belongs in a constant instead.
var configFieldsSetOnlyByTests = map[string]string{
	"core.Config.ModelSLOs": "TestPerModelSLOs",
}

// TestConfigFieldsHaveCallers fails on every exported field of a
// module-level *Config, *Options, Spec or TraceSpec struct that no non-test
// file of this module or of the bench module sets. Setting a field means a
// keyed or positional composite literal entry, an assignment, an
// increment, or taking the field's address. Four kinds of write leave a
// field unset:
//   - a zero constant (nil, 0, "", false);
//   - a defaulting branch: an assignment, in the package that declares the
//     field, inside an if whose condition compares the same field
//     (if c.X <= 0 { c.X = d });
//   - the constant a defaulting branch of the field assigns;
//   - a copy of another config field that is itself unset.
//
// Packages are type-checked from source with every standard-library import
// left empty, so a selector the checker cannot resolve counts as a write to
// every config field of that name: a name collision can hide an unset
// field, but a field some non-test statement writes is never reported.
func TestConfigFieldsHaveCallers(t *testing.T) {
	m := loadModule(t)
	fields, byName := m.configFields()
	set := m.setFields(fields, byName)

	found := map[string]gateItem{}
	for id, f := range fields {
		found[id] = gateItem{f.v, set[f.v]}
	}
	checkAllowlist(t, m, configFieldsSetOnlyByTests, found, writerGate)
}

var writerGate = gate{
	kind: "field", role: "writer", verb: "sets",
	fix: "make it a constant, or allowlist the test that sets it",
}

type modulePkg struct {
	path      string
	files     []*ast.File
	imports   []string
	testFiles []string
	types     *types.Package
	info      *types.Info
}

type moduleSrc struct {
	fset  *token.FileSet
	pkgs  map[string]*modulePkg // by import path
	order []*modulePkg          // dependencies first
	stubs map[string]*types.Package
}

// loadModule parses the non-test files of every package under the module
// root, bench module included, and type-checks them in dependency order.
func loadModule(t *testing.T) *moduleSrc {
	t.Helper()
	m := &moduleSrc{fset: token.NewFileSet(), pkgs: map[string]*modulePkg{}, stubs: map[string]*types.Package{}}
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(dir, 0)
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				return nil
			}
			return err
		}
		p := &modulePkg{path: path.Join("aegaeon", filepath.ToSlash(dir)), imports: bp.Imports}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, 0)
			if err != nil {
				return err
			}
			p.files = append(p.files, f)
		}
		for _, name := range append(bp.TestGoFiles, bp.XTestGoFiles...) {
			p.testFiles = append(p.testFiles, filepath.Join(dir, name))
		}
		m.pkgs[p.path] = p
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]string, 0, len(m.pkgs))
	for p := range m.pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		m.check(m.pkgs[p])
	}
	return m
}

// check type-checks p after its module imports. Type errors are expected
// (standard-library packages are empty stubs) and ignored.
func (m *moduleSrc) check(p *modulePkg) {
	if p.types != nil {
		return
	}
	for _, imp := range p.imports {
		if dep, ok := m.pkgs[imp]; ok {
			m.check(dep)
		}
	}
	p.info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: m, Error: func(error) {}, FakeImportC: true}
	p.types, _ = conf.Check(p.path, m.fset, p.files, p.info)
	m.order = append(m.order, p)
}

// Import returns a checked module package, or an empty stub for any other
// path.
func (m *moduleSrc) Import(ip string) (*types.Package, error) {
	if p, ok := m.pkgs[ip]; ok {
		return p.types, nil
	}
	s, ok := m.stubs[ip]
	if !ok {
		s = types.NewPackage(ip, path.Base(ip))
		s.MarkComplete()
		m.stubs[ip] = s
	}
	return s, nil
}

type configField struct {
	v *types.Var
	// defaults holds the constants this field's defaulting branches assign.
	defaults []constant.Value
}

// configFields returns the exported fields of the root module's exported
// *Config, *Options, Spec and TraceSpec structs by "pkg.Type.Field", and
// the same fields by name.
func (m *moduleSrc) configFields() (map[string]*configField, map[string][]*configField) {
	byID := map[string]*configField{}
	byName := map[string][]*configField{}
	for _, p := range m.order {
		if strings.HasPrefix(p.path, "aegaeon/bench") {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") || name == "Spec" || name == "TraceSpec") {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if v := st.Field(i); v.Exported() {
					f := &configField{v: v}
					byID[path.Base(p.path)+"."+name+"."+v.Name()] = f
					byName[v.Name()] = append(byName[v.Name()], f)
				}
			}
		}
	}
	return byID, byName
}

// fieldWrite is one non-test write to a config field.
type fieldWrite struct {
	f         *configField
	val       ast.Expr // nil when the write has no single value expression
	info      *types.Info
	defaulted bool
}

// setFields returns the config fields some non-test write sets.
func (m *moduleSrc) setFields(fields map[string]*configField, byName map[string][]*configField) map[*types.Var]bool {
	byVar := map[*types.Var]*configField{}
	for _, f := range fields {
		byVar[f.v] = f
	}
	set := map[*types.Var]bool{}
	var writes []fieldWrite
	for _, p := range m.order {
		info := p.info
		// note records a write to the field v, falling back to every config
		// field named name when the checker could not resolve v. A guarded
		// write in the field's own package is a defaulting branch.
		note := func(v types.Object, name string, val ast.Expr, guarded bool) {
			if fv, ok := v.(*types.Var); ok && fv.IsField() {
				if f := byVar[fv]; f != nil {
					writes = append(writes, fieldWrite{f, val, info, guarded && fv.Pkg() == p.types})
				}
				return
			}
			for _, f := range byName[name] {
				set[f.v] = true
			}
		}
		selected := func(sel *ast.SelectorExpr) types.Object {
			if s := info.Selections[sel]; s != nil {
				return s.Obj()
			}
			return nil
		}
		for _, file := range p.files {
			var conds []ast.Expr // enclosing if conditions
			var stack []ast.Node
			ast.Inspect(file, func(n ast.Node) bool {
				if n == nil {
					if _, ok := stack[len(stack)-1].(*ast.IfStmt); ok {
						conds = conds[:len(conds)-1]
					}
					stack = stack[:len(stack)-1]
					return true
				}
				stack = append(stack, n)
				switch n := n.(type) {
				case *ast.IfStmt:
					conds = append(conds, n.Cond)
				case *ast.AssignStmt:
					if n.Tok == token.DEFINE {
						break
					}
					for i, lhs := range n.Lhs {
						sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
						if !ok || isPkgQualified(info, sel) {
							continue
						}
						var val ast.Expr
						if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
							val = n.Rhs[i]
						}
						note(selected(sel), sel.Sel.Name, val, val != nil && guarded(conds, sel))
					}
				case *ast.IncDecStmt:
					if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok && !isPkgQualified(info, sel) {
						note(selected(sel), sel.Sel.Name, nil, false)
					}
				case *ast.UnaryExpr:
					if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok && n.Op == token.AND && !isPkgQualified(info, sel) {
						note(selected(sel), sel.Sel.Name, nil, false)
					}
				case *ast.CompositeLit:
					// st stays nil when the literal's type did not resolve.
					var st *types.Struct
					if typ := info.Types[n].Type; typ != nil && typ != types.Typ[types.Invalid] {
						if st, _ = derefType(typ).Underlying().(*types.Struct); st == nil {
							break // a slice, map or array literal
						}
					}
					for i, elt := range n.Elts {
						kv, keyed := elt.(*ast.KeyValueExpr)
						switch {
						case keyed:
							if key, ok := kv.Key.(*ast.Ident); ok {
								note(info.Uses[key], key.Name, kv.Value, false)
							}
						case st != nil && i < st.NumFields():
							note(st.Field(i), st.Field(i).Name(), elt, false)
						}
					}
				}
				return true
			})
		}
	}

	// A defaulting branch's constant is the field's own default.
	for _, w := range writes {
		if w.defaulted {
			if c := w.info.Types[w.val].Value; c != nil {
				w.f.defaults = append(w.f.defaults, c)
			}
		}
	}
	// A copy of another config field sets this one once that one is set.
	copies := map[*types.Var][]*types.Var{}
	for _, w := range writes {
		switch {
		case w.defaulted:
		case w.val == nil:
			set[w.f.v] = true
		case isZeroOrDefault(w):
		default:
			if sel, ok := ast.Unparen(w.val).(*ast.SelectorExpr); ok {
				if s := w.info.Selections[sel]; s != nil {
					if src, ok := s.Obj().(*types.Var); ok && byVar[src] != nil {
						copies[src] = append(copies[src], w.f.v)
						continue
					}
				}
			}
			set[w.f.v] = true
		}
	}
	var spread func(v *types.Var)
	spread = func(v *types.Var) {
		for _, dst := range copies[v] {
			if !set[dst] {
				set[dst] = true
				spread(dst)
			}
		}
	}
	for v := range set {
		spread(v)
	}
	return set
}

// guarded reports whether some enclosing if condition compares sel or
// negates it.
func guarded(conds []ast.Expr, sel *ast.SelectorExpr) bool {
	target := types.ExprString(sel)
	found := false
	for _, c := range conds {
		ast.Inspect(c, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				switch n.Op {
				case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
					found = found || types.ExprString(n.X) == target || types.ExprString(n.Y) == target
				}
			case *ast.UnaryExpr:
				found = found || n.Op == token.NOT && types.ExprString(n.X) == target
			}
			return !found
		})
	}
	return found
}

// isZeroOrDefault reports whether w writes a zero constant or a constant
// one of its field's defaulting branches assigns.
func isZeroOrDefault(w fieldWrite) bool {
	if id, ok := ast.Unparen(w.val).(*ast.Ident); ok && id.Name == "nil" {
		return true
	}
	c := w.info.Types[w.val].Value
	if c == nil {
		return false
	}
	switch c.Kind() {
	case constant.Int, constant.Float:
		if constant.Sign(c) == 0 {
			return true
		}
	case constant.String:
		if constant.StringVal(c) == "" {
			return true
		}
	case constant.Bool:
		if !constant.BoolVal(c) {
			return true
		}
	}
	for _, d := range w.f.defaults {
		if d.Kind() == c.Kind() && constant.Compare(d, token.EQL, c) {
			return true
		}
	}
	return false
}

func isPkgQualified(info *types.Info, sel *ast.SelectorExpr) bool {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	_, ok = info.Uses[id].(*types.PkgName)
	return ok
}

func derefType(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// testIdents maps each test function of the module to the identifiers
// its file mentions.
func (m *moduleSrc) testIdents() map[string]map[string]bool {
	out := map[string]map[string]bool{}
	fset := token.NewFileSet()
	for _, p := range m.pkgs {
		for _, file := range p.testFiles {
			f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
			if err != nil {
				continue
			}
			idents := map[string]bool{}
			var funcs []string
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if n.Recv == nil {
						funcs = append(funcs, n.Name.Name)
					}
				case *ast.Ident:
					idents[n.Name] = true
				}
				return true
			})
			for _, fn := range funcs {
				if out[fn] == nil {
					out[fn] = map[string]bool{}
				}
				for id := range idents {
					out[fn][id] = true
				}
			}
		}
	}
	return out
}
