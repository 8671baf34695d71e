package workload

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// Trace files are JSON Lines: one Request object per line, with arrival
// expressed in seconds. The format round-trips exactly and is convenient
// for external tooling (jq, pandas).

type wireRequest struct {
	ID       string  `json:"id"`
	Model    string  `json:"model"`
	ArrivalS float64 `json:"arrival_s"`
	Input    int     `json:"input_tokens"`
	Output   int     `json:"output_tokens"`
	// Priority is "high", "normal", or "low"; absent means normal, so files
	// written before priorities existed still round-trip.
	Priority string `json:"priority,omitempty"`
	// Session fields are absent for single-shot traces, so files written
	// before multi-turn workloads existed still round-trip.
	Session  string    `json:"session,omitempty"`
	Turn     int       `json:"turn,omitempty"`
	Segments []wireSeg `json:"segments,omitempty"`
}

type wireSeg struct {
	Seed uint64 `json:"seed"`
	Len  int    `json:"len"`
}

// WriteTrace encodes the trace as JSON Lines.
func WriteTrace(w io.Writer, trace []Request) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i, r := range trace {
		wr := wireRequest{
			ID:       r.ID,
			Model:    r.Model,
			ArrivalS: r.Arrival.Seconds(),
			Input:    r.InputTokens,
			Output:   r.OutputTokens,
			Session:  r.SessionID,
			Turn:     r.Turn,
		}
		if r.Priority != PriorityNormal {
			wr.Priority = r.Priority.String()
		}
		for _, s := range r.Segments {
			wr.Segments = append(wr.Segments, wireSeg{Seed: s.Seed, Len: s.Len})
		}
		if err := enc.Encode(wr); err != nil {
			return fmt.Errorf("workload: encoding request %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadTrace decodes a JSON Lines trace, validating each record. Requests
// are returned sorted by arrival (re-sorting if the file is unordered).
func ReadTrace(r io.Reader) ([]Request, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	var out []Request
	for i := 0; ; i++ {
		var wr wireRequest
		if err := dec.Decode(&wr); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("workload: decoding line %d: %w", i+1, err)
		}
		if wr.Model == "" {
			return nil, fmt.Errorf("workload: line %d: missing model", i+1)
		}
		if wr.ArrivalS < 0 {
			return nil, fmt.Errorf("workload: line %d: negative arrival %f", i+1, wr.ArrivalS)
		}
		if wr.ArrivalS*float64(time.Second) >= math.MaxInt64 {
			return nil, fmt.Errorf("workload: line %d: arrival %g s overflows a duration", i+1, wr.ArrivalS)
		}
		if wr.Input < 0 || wr.Output < 1 {
			return nil, fmt.Errorf("workload: line %d: invalid lengths in=%d out=%d",
				i+1, wr.Input, wr.Output)
		}
		prio, err := ParsePriority(wr.Priority)
		if err != nil {
			return nil, fmt.Errorf("workload: line %d: %w", i+1, err)
		}
		var segs []PromptSeg
		if len(wr.Segments) > 0 {
			sum := 0
			for j, s := range wr.Segments {
				if s.Len <= 0 {
					return nil, fmt.Errorf("workload: line %d: segment %d has non-positive length %d",
						i+1, j, s.Len)
				}
				segs = append(segs, PromptSeg{Seed: s.Seed, Len: s.Len})
				sum += s.Len
			}
			if sum != wr.Input {
				return nil, fmt.Errorf("workload: line %d: segment lengths sum to %d, input_tokens is %d",
					i+1, sum, wr.Input)
			}
		}
		out = append(out, Request{
			ID:           wr.ID,
			Model:        wr.Model,
			Arrival:      time.Duration(wr.ArrivalS * float64(time.Second)),
			InputTokens:  wr.Input,
			OutputTokens: wr.Output,
			Priority:     prio,
			SessionID:    wr.Session,
			Turn:         wr.Turn,
			Segments:     segs,
		})
	}
	sortAndNumberPreservingIDs(out)
	return out, nil
}

// sortAndNumberPreservingIDs sorts by arrival and assigns IDs only where
// absent.
func sortAndNumberPreservingIDs(reqs []Request) {
	sortStable(reqs)
	for i := range reqs {
		if reqs[i].ID == "" {
			reqs[i].ID = fmt.Sprintf("r%06d", i)
		}
	}
}

func sortStable(reqs []Request) {
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].Arrival < reqs[j].Arrival })
}
