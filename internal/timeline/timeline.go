// Package timeline renders pipeline timelines as ASCII Gantt charts (the
// textual equivalent of the paper's Figs 2–7, 11 and 12) and SVG. The ASCII
// and SVG renderers implement obs.Exporter (see exporter.go), so they
// compose with the obs package's Chrome-trace and JSONL exporters behind a
// single interface. RenderOrder prints a schedule's op order before any
// simulation.
package timeline

import (
	"fmt"
	"io"
	"strings"

	"mepipe/internal/sched"
)

func cellLabel(op sched.Op) string {
	return fmt.Sprintf("%s%d", op.Kind, op.Micro)
}

func fill(op sched.Op) byte {
	switch op.Kind {
	case sched.F:
		return '='
	case sched.B:
		return '#'
	case sched.BAct:
		return '-'
	default:
		return '~'
	}
}

// RenderOrder writes the per-stage op order without timing — useful for
// inspecting a schedule before simulation.
func RenderOrder(w io.Writer, s *sched.Schedule) {
	for k, ops := range s.Stages {
		var b strings.Builder
		for i, op := range ops {
			if i > 0 {
				b.WriteByte(' ')
			}
			if s.S > 1 || s.V > 1 {
				fmt.Fprintf(&b, "%s%d.%d", op.Kind, op.Micro, op.Slice)
				if s.V > 1 {
					fmt.Fprintf(&b, "c%d", op.Chunk)
				}
			} else {
				fmt.Fprintf(&b, "%s%d", op.Kind, op.Micro)
			}
		}
		fmt.Fprintf(w, "stage %2d: %s\n", k, b.String())
	}
}
