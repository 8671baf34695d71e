package experiments

import "strings"

// registryEntry pairs an experiment with its table ID prefix so filtered
// invocations skip the work entirely.
type registryEntry struct {
	id  string
	run func(Options) []Table
}

func one(f func(Options) Table) func(Options) []Table {
	return func(o Options) []Table { return []Table{f(o)} }
}

// Registry returns the full experiment list in paper order.
func Registry() []registryEntry {
	return []registryEntry{
		{"Figure 1(a)", one(Figure1a)},
		{"Figure 1(b)", one(Figure1b)},
		{"Figure 4", one(Figure4)},
		{"Figure 6", one(Figure6)},
		{"Figure 7", one(Figure7)},
		{"Table 1", one(Table1)},
		{"Table 2", one(Table2)},
		{"Figure 8", one(Figure8)},
		{"Figure 11(a)", one(Figure11a)},
		{"Figure 11(b)", one(Figure11b)},
		{"Figure 11(c)", one(Figure11c)},
		{"Figure 12(a)", one(Figure12a)},
		{"Figure 12(b)", one(Figure12b)},
		{"Figure 12(c)", one(Figure12c)},
		{"Figure 12(d)", one(Figure12d)},
		{"Figure 13", Figure13},
		{"Figure 14", one(Figure14)},
		{"Figure 15 (left)", one(Figure15Left)},
		{"Figure 15 (right)", one(Figure15Right)},
		{"Figure 16", one(Figure16)},
		{"Figure 17 (left)", one(Figure17Left)},
		{"Figure 17 (right)", one(Figure17Right)},
		{"Figure 18", one(Figure18)},
		{"§7.5 deployment", one(Section75)},
		{"Headline", one(Headline)},
		{"Ablation: auto-scaling optimizations", one(AblationOptimizations)},
		{"Ablation: MAX_GPSIZE", one(AblationGrouping)},
		{"Ablation: QMAX", one(AblationQMax)},
		{"Ablation: quota formula", one(AblationQuotaFormula)},
		{"Ablation: pool partition", one(AblationPartition)},
		{"Ablation: dynamic colocation (§8)", one(AblationColocation)},
		{"Extra: GPU scaling", one(ExtraGPUScaling)},
		{"Extra: workload patterns", one(ExtraWorkloadPatterns)},
		{"Extra: per-model attainment", one(ExtraPerModelAttainment)},
	}
}

// Run streams experiment tables through emit as they complete, so callers
// can print progressively during long suites.
func Run(o Options, filter string, emit func(Table)) {
	for _, e := range Registry() {
		if filter != "" && !strings.HasPrefix(e.id, filter) {
			continue
		}
		for _, t := range e.run(o) {
			emit(t)
		}
	}
}

// IDs lists the registered experiment IDs.
func IDs() []string {
	var out []string
	for _, e := range Registry() {
		out = append(out, e.id)
	}
	return out
}
