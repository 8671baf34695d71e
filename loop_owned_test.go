package aegaeon

import (
	"strconv"
	"strings"
	"testing"
)

// syncPackages are the internal packages that may import sync or
// sync/atomic: the driver that owns the event loop, and the gateway, whose
// HTTP goroutines count responses and streamed tokens and read the draining
// flag. Every other internal package is written only by the event loop, and
// off-loop code reads it through the driver.
var syncPackages = map[string]bool{
	"aegaeon/internal/sim":     true,
	"aegaeon/internal/gateway": true,
}

// TestLoopOwnedPackagesTakeNoLocks holds DESIGN.md's concurrency rule: no
// non-test file under internal/ imports sync or sync/atomic outside
// syncPackages.
func TestLoopOwnedPackagesTakeNoLocks(t *testing.T) {
	m := loadModule(t)
	for _, p := range m.order {
		if !strings.HasPrefix(p.path, "aegaeon/internal/") || syncPackages[p.path] {
			continue
		}
		for _, f := range p.files {
			for _, imp := range f.Imports {
				if path, _ := strconv.Unquote(imp.Path.Value); path == "sync" || path == "sync/atomic" {
					t.Errorf("%s imports %s: the event loop owns %s, so off-loop code reads it through "+
						"sim.Driver.Call instead of a lock (DESIGN.md, \"Concurrency: the event loop owns the simulation\")",
						m.fset.Position(imp.Pos()), path, p.path)
				}
			}
		}
	}
}
