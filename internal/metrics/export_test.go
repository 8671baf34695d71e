package metrics

// Mean returns the retained-sample mean; NaN if empty.
func (s *SafeCDF) Mean() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.r.Mean()
}

// Samples returns a copy of the retained samples, in no particular order.
func (s *SafeCDF) Samples() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.r.Samples()
}

// Mean returns the retained-sample mean; NaN if empty.
func (r *Reservoir) Mean() float64 { return r.cdf.Mean() }
