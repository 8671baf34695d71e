package aegaeon

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fuzzSmokeTarget matches one fuzz target of ci.yml's "Fuzz smoke" step:
// the target's name and the package directory it runs in.
var fuzzSmokeTarget = regexp.MustCompile(`-fuzz '\^(\w+)\$'.*?\./(\S+?)/?$`)

// TestFuzzTargetsRunInCI fails on a func Fuzz* of the module that CI's
// "Fuzz smoke" step does not run in its own package, and on a step line
// naming a target that package no longer declares.
func TestFuzzTargetsRunInCI(t *testing.T) {
	m := loadModule(t)
	declared := map[string]bool{} // "dir Fuzz…"
	fset := token.NewFileSet()
	for _, p := range m.pkgs {
		for _, file := range p.testFiles {
			f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Fuzz") {
					declared[filepath.ToSlash(filepath.Dir(file))+" "+fd.Name.Name] = true
				}
			}
		}
	}
	if len(declared) == 0 {
		t.Fatal("found no fuzz targets")
	}
	run := map[string]bool{}
	for _, line := range fuzzSmokeLines(t) {
		if sub := fuzzSmokeTarget.FindStringSubmatch(line); sub != nil {
			run[sub[2]+" "+sub[1]] = true
		}
	}
	for target := range declared {
		if !run[target] {
			dir, name, _ := strings.Cut(target, " ")
			t.Errorf("%s in ./%s is not run by ci.yml's \"Fuzz smoke\" step; add a -fuzz '^%s$' line for it", name, dir, name)
		}
	}
	for target := range run {
		if !declared[target] {
			dir, name, _ := strings.Cut(target, " ")
			t.Errorf("ci.yml's \"Fuzz smoke\" step runs %s in ./%s, which declares no such target", name, dir)
		}
	}
}

// fuzzSmokeLines returns the lines of ci.yml's "Fuzz smoke" step, up to
// the next step.
func fuzzSmokeLines(t *testing.T) []string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	in := false
	for _, line := range strings.Split(string(data), "\n") {
		if step, ok := strings.CutPrefix(strings.TrimSpace(line), "- name:"); ok {
			in = strings.TrimSpace(step) == "Fuzz smoke"
			continue
		}
		if in {
			out = append(out, line)
		}
	}
	if len(out) == 0 {
		t.Fatal(`ci.yml has no "Fuzz smoke" step`)
	}
	return out
}
