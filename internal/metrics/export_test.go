package metrics

// Mean returns the retained-sample mean; NaN if empty.
func (r *Reservoir) Mean() float64 { return r.cdf.Mean() }
