package core

import "math"

// eq2Quotas evaluates the decoding-phase quota formulas of §4.3 in their
// pure form:
//
//	n_k = d_k / t_k
//	α   = max( c / (min_k(n_k)·QMAX) + Σ_k 1/n_k , 0.5 )            (Eq. 3)
//	q_i = c / ( n_i · (α − Σ_k 1/n_k) )                             (Eq. 2)
//
// where d_k is batch k's TBT target, t_k its decode-step estimate, c the
// round's total auto-scaling overhead, and QMAX the quota ceiling. The
// paper states the formulas for a uniform TBT d; passing per-batch d_k
// generalizes them to heterogeneous per-model SLOs (each batch's buffered
// window scales with its own deadline). The quotas are appended to dst; the
// returned round carries c, α and Σ_k 1/n_k, and α's reciprocal is the
// round's estimated SLO attainment.
//
// Degenerate inputs are clamped: t_k > d_k (the SLO is unmeetable for that
// batch) clamps n_k slightly above 1 so the round still schedules it.
func eq2Quotas(dst []float64, c, qmax float64, d, t []float64) ([]float64, eq2Round) {
	if len(d) != len(t) {
		panic("core: eq2Quotas deadline/step length mismatch")
	}
	r := eq2Round{c: c}
	minN := math.Inf(1)
	for i := range t {
		n := eq2N(d[i], t[i])
		r.sumInv += 1 / n
		if n < minN {
			minN = n
		}
	}
	r.alpha = c/(minN*qmax) + r.sumInv
	if r.alpha < 0.5 {
		r.alpha = 0.5
	}
	for i := range t {
		dst = append(dst, r.quota(d[i], t[i]))
	}
	return dst, r
}

// eq2Round is one round's Eq. 2–3 parameters.
type eq2Round struct {
	c, alpha, sumInv float64 // overhead c, α, and Σ_k 1/n_k
}

// quota is Eq. 2 for one batch with TBT target d and decode step t under the
// round's parameters; batches admitted mid-round get theirs from it too.
func (r eq2Round) quota(d, t float64) float64 {
	return r.c / (eq2N(d, t) * (r.alpha - r.sumInv))
}

// eq2N is n_k = d_k/t_k, clamped slightly above 1.
func eq2N(d, t float64) float64 {
	n := d / t
	if n < 1.01 {
		n = 1.01
	}
	return n
}
