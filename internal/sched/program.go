package sched

// Program is a schedule's stage lists loaded onto its op universe (the
// OpIndex ids of its shape): every position's id, and every id's
// program-order successor and position. The certifier and the simulator
// session load every full table through it, so one pass decides for both
// whether the lists are exactly the universe.
// The zero Program is ready to Load, and a Program reuses its capacity
// across Loads.
type Program struct {
	IDs  []int32 // position, stage-major -> id
	Next []int32 // id -> program-order successor, -1 at the end of a stage
	Pos  []int32 // id -> position in its stage
}

// FaultKind says why stage lists are not their shape's op universe.
type FaultKind uint8

const (
	// NoFault: every op of the shape appears exactly once.
	NoFault FaultKind = iota
	// Misfit: an op out of shape range, of a kind the schedule's
	// backward mode does not express, or carrying a stray piece number.
	Misfit
	// Duplicate: an op listed a second time.
	Duplicate
	// Short: a stage lists fewer ops than the shape has.
	Short
)

// Fault is the first reason Load found, in stage order. Op is the
// offending op as listed, or for Short the stage's first missing member
// in family order: (micro, slice, chunk), then F, the backward, and the
// weight-gradient work.
type Fault struct {
	Kind  FaultKind
	Stage int
	Op    Op
}

// Load resolves every op of s to its dense id in one pass, proving each
// in shape and listed once and chaining program order, and returns the
// first fault, or the zero Fault when the lists are exactly the universe.
// The tables are complete only then. s must have a positive shape and P
// stage lists; callers check both first.
func (p *Program) Load(s *Schedule) Fault {
	x := s.indexer()
	total := x.total()
	p.IDs = sgrow(p.IDs, total)[:0]
	p.Next = sgrow(p.Next, total)
	p.Pos = sgrow(p.Pos, total)
	for id := range p.Pos {
		p.Pos[id] = -1 // not listed yet
	}
	for k, ops := range s.Stages {
		prev := int32(-1)
		for i, op := range ops {
			id := x.id(k, op)
			if id < 0 || op.Piece != 0 && op.Kind != WPiece {
				return Fault{Misfit, k, op}
			}
			if p.Pos[id] >= 0 {
				return Fault{Duplicate, k, op}
			}
			p.Pos[id] = int32(i)
			p.IDs = append(p.IDs, id)
			if prev >= 0 {
				p.Next[prev] = id
			}
			prev = id
		}
		// Distinct in-shape ops as many as the stage has are all of them.
		if len(ops) < x.perStage {
			return Fault{Short, k, p.missing(x, k)}
		}
		p.Next[prev] = -1
	}
	return Fault{}
}

// missing returns stage k's first unlisted op in family order.
func (p *Program) missing(x opIndexer, k int) Op {
	for m := 0; m < x.n; m++ {
		for i := 0; i < x.s; i++ {
			for j := 0; j < x.v; j++ {
				fam := k*x.perStage + ((m*x.v+j)*x.s+i)*x.slots
				for id := fam; id < fam+x.slots; id++ {
					if p.Pos[id] < 0 {
						_, op := x.opAt(int32(id))
						return op
					}
				}
			}
		}
	}
	return Op{} // unreachable for a short stage
}
