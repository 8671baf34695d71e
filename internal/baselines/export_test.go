package baselines

// PlacedModels returns how many models the placement accepted.
func (s *Mux) PlacedModels() int {
	n := 0
	for _, mm := range s.placement {
		if mm != nil {
			n++
		}
	}
	return n
}

// MaxModelsPerGPU returns the largest colocation degree achieved.
func (s *Mux) MaxModelsPerGPU() int {
	max := 0
	for _, g := range s.gpus {
		if len(g.models) > max {
			max = len(g.models)
		}
	}
	return max
}

// Rejected returns requests refused because their model was not placed.
func (s *Mux) Rejected() int {
	n := 0
	for _, r := range s.requests {
		if r.model == nil {
			n++
		}
	}
	return n
}
