package engine

import (
	"time"

	"aegaeon/internal/model"
)

// SwitchEstimate returns the scheduler's model-switch latency estimate
// (Appendix A.2, Eq. 4), including reinitialization when components are not
// reused. The estimate ignores prefetch (the scheduler treats prefetch wins
// as bonus).
func (e *Engine) SwitchEstimate(id model.ID) time.Duration {
	if e.current != nil && e.curID == id {
		return 0
	}
	return e.SwitchCost(id)
}
