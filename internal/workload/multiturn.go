package workload

import (
	"fmt"
	"math/rand"
	"time"
)

// This file opens the prefix-heavy workloads that motivate the global prefix
// cache: multi-turn chat (each turn re-sends the conversation so far),
// agentic tool-call loops (growing context re-sent after every tool result),
// and shared-system-prompt tenants (many conversations over one long common
// prefix). Prompt content is expressed through Segments so the cache can
// recognize the shared prefixes; the session stream seed stays fixed within
// a conversation while its length grows, which is exactly "turn n+1 re-sends
// turn n's context plus new tokens".

// SeedString derives a deterministic content seed from a string (FNV-1a),
// used for per-model system prompts and gateway session IDs.
func SeedString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// systemSeed is the content seed of a model's shared system prompt.
func systemSeed(model string) uint64 { return SeedString("system\x00" + model) }

// MultiTurnConfig parameterizes MultiTurnTrace.
type MultiTurnConfig struct {
	// MeanTurns is the mean conversation length (geometric). Default 5.
	MeanTurns float64
	// SystemPromptTokens prepends a per-model shared system prompt to every
	// turn. Zero means none.
	SystemPromptTokens int
}

const (
	// chatThink is the mean user think time between turns (exponential):
	// humans read the answer before replying.
	chatThink = 20 * time.Second
	// chatService approximates a turn's completion latency when placing
	// the next turn's arrival (the generator is open-loop and cannot
	// observe real completions).
	chatService = 8 * time.Second
)

func (c *MultiTurnConfig) defaults() {
	if c.MeanTurns <= 1 {
		c.MeanTurns = 5
	}
}

// MultiTurnTrace draws multi-turn chat sessions: per model, sessions arrive
// as a Poisson process at sessionRate sessions/second; each session runs a
// geometric number of turns with think-time gaps, and every turn re-sends
// the full conversation so far (prior prompts and responses) plus fresh user
// tokens sampled from ds.
func MultiTurnTrace(rng *rand.Rand, models []string, sessionRate float64, horizon time.Duration, ds Dataset, cfg MultiTurnConfig) []Request {
	cfg.defaults()
	pCont := 1 - 1/cfg.MeanTurns
	var out []Request
	sess := 0
	for _, m := range models {
		sysSeed := systemSeed(m)
		t := 0.0
		for {
			t += rng.ExpFloat64() / sessionRate
			start := time.Duration(t * float64(time.Second))
			if start >= horizon {
				break
			}
			sid := fmt.Sprintf("chat-%s-s%05d", m, sess)
			sess++
			streamSeed := rng.Uint64()
			at := start
			ctx := 0 // accumulated conversation tokens (prior turns + replies)
			for {
				uin, o := ds.Sample(rng)
				in := ctx + uin
				var segs []PromptSeg
				if cfg.SystemPromptTokens > 0 {
					segs = append(segs, PromptSeg{Seed: sysSeed, Len: cfg.SystemPromptTokens})
					in += cfg.SystemPromptTokens
				}
				segs = append(segs, PromptSeg{Seed: streamSeed, Len: ctx + uin})
				out = append(out, Request{
					Model:        m,
					Arrival:      at,
					InputTokens:  in,
					OutputTokens: o,
					SessionID:    sid,
					Segments:     segs,
				})
				ctx += uin + o
				if rng.Float64() >= pCont {
					break
				}
				at += chatService +
					time.Duration(rng.ExpFloat64()*float64(chatThink))
				if at >= horizon {
					break
				}
			}
		}
	}
	sortAndNumber(out)
	return out
}

// AgenticConfig parameterizes AgenticTrace.
type AgenticConfig struct {
	// SystemPromptTokens prepends a per-model agent scaffold prompt.
	// Default 512 — agent harnesses carry large tool schemas.
	SystemPromptTokens int
}

const (
	// agentCalls is the mean number of tool-call iterations per task
	// (geometric). A float, so 1/agentCalls is not integer division.
	agentCalls float64 = 6
	// toolLatency is the mean gap between a response and the follow-up
	// request carrying the tool result (exponential): tool execution, not
	// human thinking, so much tighter than chat.
	toolLatency = 2 * time.Second
	// toolResultTokens is the mean size of an injected tool result
	// (exponential, min 8).
	toolResultTokens = 256
	// agentService approximates a step's completion latency.
	agentService = 6 * time.Second
)

func (c *AgenticConfig) defaults() {
	if c.SystemPromptTokens <= 0 {
		c.SystemPromptTokens = 512
	}
}

// AgenticTrace draws agentic tool-call loops: each task starts from a task
// prompt under a large shared scaffold prompt, then loops — the model
// responds (a tool call), the tool result is appended, and the grown context
// is re-sent — for a geometric number of iterations with short tool-latency
// gaps. Context grows much faster than chat, making these the heaviest
// prefix reusers.
func AgenticTrace(rng *rand.Rand, models []string, taskRate float64, horizon time.Duration, ds Dataset, cfg AgenticConfig) []Request {
	cfg.defaults()
	pCont := 1 - 1/agentCalls
	var out []Request
	task := 0
	for _, m := range models {
		sysSeed := systemSeed(m)
		t := 0.0
		for {
			t += rng.ExpFloat64() / taskRate
			start := time.Duration(t * float64(time.Second))
			if start >= horizon {
				break
			}
			sid := fmt.Sprintf("agent-%s-t%05d", m, task)
			task++
			streamSeed := rng.Uint64()
			at := start
			taskIn, _ := ds.Sample(rng)
			ctx := taskIn
			for {
				_, o := ds.Sample(rng)
				out = append(out, Request{
					Model:        m,
					Arrival:      at,
					InputTokens:  cfg.SystemPromptTokens + ctx,
					OutputTokens: o,
					SessionID:    sid,
					Segments: []PromptSeg{
						{Seed: sysSeed, Len: cfg.SystemPromptTokens},
						{Seed: streamSeed, Len: ctx},
					},
				})
				toolResult := 8 + int(rng.ExpFloat64()*float64(toolResultTokens))
				ctx += o + toolResult
				if rng.Float64() >= pCont {
					break
				}
				at += agentService +
					time.Duration(rng.ExpFloat64()*float64(toolLatency))
				if at >= horizon {
					break
				}
			}
		}
	}
	sortAndNumber(out)
	return out
}

// SharedPrefixTrace draws single-turn requests where every request to a
// model shares that model's long system prompt (promptTokens) followed by a
// short unique user suffix from ds — the multi-tenant "shared system prompt"
// pattern. With promptTokens ≫ the ds prompt median, nearly all prefill work
// is the shared prefix, so this trace has the highest cacheable fraction.
func SharedPrefixTrace(rng *rand.Rand, models []string, ratePerModel float64, horizon time.Duration, promptTokens int, ds Dataset) []Request {
	var out []Request
	for _, m := range models {
		sysSeed := systemSeed(m)
		t := 0.0
		for {
			t += rng.ExpFloat64() / ratePerModel
			at := time.Duration(t * float64(time.Second))
			if at >= horizon {
				break
			}
			uin, o := ds.Sample(rng)
			out = append(out, Request{
				Model:        m,
				Arrival:      at,
				InputTokens:  promptTokens + uin,
				OutputTokens: o,
				Segments: []PromptSeg{
					{Seed: sysSeed, Len: promptTokens},
					{Seed: rng.Uint64(), Len: uin},
				},
			})
		}
	}
	sortAndNumber(out)
	return out
}
