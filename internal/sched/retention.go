package sched

// Retention is what one op does to its family's retained memory: the
// paper's memory model (§4.5, with §5's fine-grained weight gradients) as
// one rule. A forward retains the family's activations, a split backward
// adds its gradient bytes, and a fused backward, a whole weight gradient
// or the family's last weight-gradient piece releases both. The
// certifier's sweep, the simulator session's static scan and move
// overlays, and its dynamic engine all step through RetentionOf; only the
// differential tests' oracles keep copies of their own.
type Retention uint8

const (
	// Hold leaves the family's retention unchanged: a weight-gradient
	// piece other than the family's last.
	Hold Retention = iota
	// RetainAct retains the family's activations (F).
	RetainAct
	// RetainGrad adds the family's activation-gradient bytes (BAct).
	RetainGrad
	// Release frees everything the family retains (B, W, last WPiece).
	Release
)

// RetentionOf returns what an op of kind k does to its family's retained
// memory; lastPiece reports whether a WPiece op is its family's last
// weight-gradient piece to run, and is ignored for other kinds.
func RetentionOf(k Kind, lastPiece bool) Retention {
	switch k {
	case F:
		return RetainAct
	case BAct:
		return RetainGrad
	case B, W:
		return Release
	case WPiece:
		if lastPiece {
			return Release
		}
	}
	return Hold
}

// PieceStep is RetentionOf for a program-order replay: it counts a WPiece
// op in *done, its family's pieces run so far, and treats the wPieces-th
// as the last (resetting the count).
func PieceStep(k Kind, done *int32, wPieces int) Retention {
	last := false
	if k == WPiece {
		*done++
		if last = int(*done) == wPieces; last {
			*done = 0
		}
	}
	return RetentionOf(k, last)
}
