package workload

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// The JSON Lines trace encoding: one Request object per line, arrival in
// seconds. TestTraceGeneratorDigests pins the session generators' output in
// these bytes, so they must not change.

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
