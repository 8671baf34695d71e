package baselines

import "slices"

// batchHost is what a system plugs into a batchLoop.
type batchHost interface {
	// prefill and decode run one step and call done when it ends.
	prefill(r *request, done func())
	decode(contextTokens int64, done func())
	// refill offers the loop more requests after one finishes and returns
	// its KV to the budget.
	refill()
	// busy is called with true when the loop starts and with false when it
	// goes idle, its last admitted request finished.
	busy(on bool)
}

// batchLoop is vLLM-style continuous batching, which ServerlessLLM's
// instances and MuxServe's placed models both serve with: each step
// prefills the first admitted request that has no token yet, or else
// decodes one token for every admitted request. A request that finishes
// leaves the batch at once, returning its KV, and the host refills before
// the next request in the batch gets its token.
type batchLoop struct {
	host batchHost
	book *base

	admitted []*request // admitted requests, in admission order
	kvLive   int64      // projected tokens of the admitted requests
	kvLimit  int64
	running  bool
}

// fits reports whether r's projected tokens fit the KV budget beside the
// admitted requests'.
func (b *batchLoop) fits(r *request) bool {
	return b.kvLive+r.projectedTokens() <= b.kvLimit
}

// admit adds r to the batch; the step after the one in flight prefills it.
func (b *batchLoop) admit(r *request) {
	b.admitted = append(b.admitted, r)
	b.kvLive += r.projectedTokens()
}

// start runs the loop if it is stopped and has admitted requests.
func (b *batchLoop) start() {
	if b.running || len(b.admitted) == 0 {
		return
	}
	b.running = true
	b.host.busy(true)
	b.step()
}

func (b *batchLoop) step() {
	if len(b.admitted) == 0 {
		b.running = false
		b.host.busy(false)
		return
	}
	for _, r := range b.admitted {
		if !r.prefilled {
			r.prefilled = true
			b.host.prefill(r, func() {
				r.tokenTimes = append(r.tokenTimes, b.book.eng.Now())
				if r.outputTokens <= 1 {
					b.finish(r)
				}
				b.step()
			})
			return
		}
	}
	var ctx int64
	batch := make([]*request, 0, len(b.admitted))
	for _, r := range b.admitted {
		ctx += r.contextTokens()
		batch = append(batch, r)
	}
	b.host.decode(ctx, func() {
		now := b.book.eng.Now()
		for _, r := range batch {
			r.tokenTimes = append(r.tokenTimes, now)
			if len(r.tokenTimes) >= r.outputTokens {
				b.finish(r)
			}
		}
		b.step()
	})
}

func (b *batchLoop) finish(r *request) {
	r.done = true
	b.book.completed++
	i := slices.Index(b.admitted, r)
	b.admitted = slices.Delete(b.admitted, i, i+1)
	b.kvLive -= r.projectedTokens()
	b.host.refill()
}
