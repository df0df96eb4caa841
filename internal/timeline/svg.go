package timeline

import (
	"fmt"

	"mepipe/internal/sched"
)

// opColor shades by op class, darkening with the micro-batch index.
func opColor(op sched.Op) string {
	shade := 1.0 - 0.06*float64(op.Micro%8)
	scaleC := func(r, g, b int) string {
		return fmt.Sprintf("#%02x%02x%02x",
			int(float64(r)*shade), int(float64(g)*shade), int(float64(b)*shade))
	}
	switch op.Kind {
	case sched.F:
		return scaleC(0x4c, 0x9f, 0xeb) // blue
	case sched.B:
		return scaleC(0xf2, 0x8c, 0x38) // orange
	case sched.BAct:
		return scaleC(0xf2, 0xb1, 0x38) // amber
	case sched.W, sched.WPiece:
		return scaleC(0x67, 0xc2, 0x7f) // green
	}
	return "#999999"
}
