package latency

// Coefficients returns (C1..C5) in the units of Appendix A.2, for reporting.
func (c *CostModel) Coefficients() (c1, c2, c3, c4, c5 float64) {
	return c.eq5C1(), c.eq5C2(), c.eq5C3(), c.eq6C4(), c.eq6C5()
}
