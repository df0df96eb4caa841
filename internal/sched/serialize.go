package sched

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"mepipe/internal/errs"
)

// Serialization lets schedules travel as artifacts: a generated (and
// possibly hand-tuned) order can be saved, inspected, diffed, and replayed
// by the simulator or the real runtime later. Load only decodes; every
// boundary that reads a saved schedule certifies it (verify.Certify).

type scheduleJSON struct {
	Name    string   `json:"name"`
	P       int      `json:"p"`
	V       int      `json:"v"`
	S       int      `json:"s"`
	N       int      `json:"n"`
	SplitBW bool     `json:"split_bw"`
	WPieces int      `json:"w_pieces,omitempty"`
	Place   string   `json:"placement"`
	Stages  [][]ated `json:"stages"`
}

// errTooManyOps is Load's decode error for a shape past the op ids.
var errTooManyOps = errors.New("more ops than int32 op ids can number")

// ated is the compact op encoding [kind, micro, slice, chunk, piece].
type ated [5]int

const (
	placeRoundRobin = "round-robin"
	placeWave       = "wave"
)

// Save writes the schedule as JSON.
func (s *Schedule) Save(w io.Writer) error {
	doc := scheduleJSON{
		Name: s.Name, P: s.P, V: s.V, S: s.S, N: s.N,
		SplitBW: s.SplitBW, WPieces: s.WPieces,
	}
	switch s.Place.(type) {
	case RoundRobin:
		doc.Place = placeRoundRobin
	case Wave:
		doc.Place = placeWave
	default:
		return fmt.Errorf("sched: cannot serialise custom placement %T: %w", s.Place, errs.ErrIncompatible)
	}
	for _, ops := range s.Stages {
		row := make([]ated, len(ops))
		for i, op := range ops {
			row[i] = ated{int(op.Kind), op.Micro, op.Slice, op.Chunk, op.Piece}
		}
		doc.Stages = append(doc.Stages, row)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// Load decodes a schedule saved by Save. It refuses malformed JSON, an
// inapplicable placement and a shape past the op ids (UniverseOps), but
// does not check the stage lists: certify what it returns.
func Load(r io.Reader) (*Schedule, error) {
	var doc scheduleJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("sched: decoding schedule: %w", err)
	}
	s := &Schedule{
		Name: doc.Name, P: doc.P, V: doc.V, S: doc.S, N: doc.N,
		SplitBW: doc.SplitBW, WPieces: doc.WPieces,
	}
	if _, ok := s.UniverseOps(); !ok {
		return nil, fmt.Errorf("sched: decoding schedule: %s: %w", s, errTooManyOps)
	}
	switch doc.Place {
	case placeRoundRobin:
		s.Place = RoundRobin{P: doc.P, V: doc.V}
	case placeWave:
		if doc.V != 2 {
			return nil, fmt.Errorf("sched: wave placement requires v=2, got %d: %w", doc.V, errs.ErrIncompatible)
		}
		s.Place = Wave{P: doc.P}
	default:
		return nil, fmt.Errorf("sched: unknown placement %q: %w", doc.Place, errs.ErrIncompatible)
	}
	for _, row := range doc.Stages {
		ops := make([]Op, len(row))
		for i, a := range row {
			ops[i] = Op{Kind: Kind(a[0]), Micro: a[1], Slice: a[2], Chunk: a[3], Piece: a[4]}
		}
		s.Stages = append(s.Stages, ops)
	}
	return s, nil
}
