package gpu

import (
	"time"

	"aegaeon/internal/sim"
)

// NewCompletedEvent returns an event that is already complete — useful as a
// neutral dependency. No device owns it, so it is never reused.
func NewCompletedEvent(eng *sim.Engine) Event {
	return Event{e: &event{done: true, at: eng.Now()}}
}

// Submit enqueues an unlabelled operation occupying engine k for dur.
// onDone callbacks (optional) fire in order when the operation completes.
// To get an event for the operation's completion, call Record right after
// Submit: streams are FIFO, so the marker fires as soon as this operation
// retires, before the stream's next operation starts and at the same
// virtual time.
func (s *Stream) Submit(k EngineKind, dur time.Duration, onDone ...func()) {
	s.SubmitOp(k, dur, OpInfo{}, onDone...)
}
