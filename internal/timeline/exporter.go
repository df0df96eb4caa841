package timeline

import (
	"fmt"
	"io"
	"math"

	"mepipe/internal/obs"
)

// ASCII renders a trace as a textual Gantt chart, implementing obs.Exporter
// so text output composes with the SVG / Chrome-trace / JSONL exporters
// behind one interface. Unit is the time per character column (0
// auto-scales to keep the chart under ~160 columns). Each op cell shows the
// op kind and micro-batch index, e.g. F3 is the forward of micro-batch 3
// and b/w are split backward halves.
type ASCII struct {
	Unit float64
}

// Export implements obs.Exporter.
func (a ASCII) Export(w io.Writer, t *obs.Trace) error {
	end := t.Makespan
	unit := a.Unit
	if unit <= 0 {
		unit = end / 156
		if unit <= 0 {
			unit = 1
		}
	}
	cols := int(math.Ceil(end/unit)) + 1
	for k := 0; k < t.Stages; k++ {
		row := make([]byte, cols)
		for i := range row {
			row[i] = '.'
		}
		for _, sp := range t.OpSpans(k) {
			c0 := int(sp.Start / unit)
			c1 := int(math.Ceil(sp.End / unit))
			if c1 <= c0 {
				c1 = c0 + 1
			}
			if c1 > cols {
				c1 = cols
			}
			label := cellLabel(sp.Op)
			for i := c0; i < c1; i++ {
				j := i - c0
				if j < len(label) {
					row[i] = label[j]
				} else {
					row[i] = fill(sp.Op)
				}
			}
		}
		if _, err := fmt.Fprintf(w, "stage %2d |%s|\n", k, string(row)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "          time: %.4g per column, makespan %.6g, bubble %.1f%%\n",
		unit, t.Makespan, 100*t.Bubble)
	return err
}

// SVG renders a trace as a self-contained SVG Gantt chart — the graphical
// counterpart of the paper's Figs 11/12 timelines — implementing
// obs.Exporter. Colors follow the paper's convention: one hue per op class,
// micro-batches shaded.
type SVG struct{}

// Export implements obs.Exporter.
func (SVG) Export(w io.Writer, t *obs.Trace) error {
	const (
		rowH   = 26
		rowGap = 6
		width  = 1200
		padX   = 60
		padY   = 24
	)
	stages := t.Stages
	height := padY*2 + stages*(rowH+rowGap)
	scale := float64(width-2*padX) / t.Makespan
	if _, err := fmt.Fprintf(w,
		`<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="monospace" font-size="11">`+"\n",
		width, height); err != nil {
		return err
	}
	fmt.Fprintf(w, `<rect width="%d" height="%d" fill="white"/>`+"\n", width, height)
	for k := 0; k < stages; k++ {
		y := padY + k*(rowH+rowGap)
		fmt.Fprintf(w, `<text x="4" y="%d">stage %d</text>`+"\n", y+rowH-9, k)
		fmt.Fprintf(w, `<rect x="%d" y="%d" width="%d" height="%d" fill="#f2f2f2"/>`+"\n",
			padX, y, width-2*padX, rowH)
		for _, sp := range t.OpSpans(k) {
			x := padX + sp.Start*scale
			wd := (sp.End - sp.Start) * scale
			if wd < 0.5 {
				wd = 0.5
			}
			fmt.Fprintf(w,
				`<rect x="%.1f" y="%d" width="%.1f" height="%d" fill="%s" stroke="white" stroke-width="0.4"><title>%s [%.4g, %.4g]</title></rect>`+"\n",
				x, y, wd, rowH, opColor(sp.Op), sp.Op, sp.Start, sp.End)
		}
	}
	fmt.Fprintf(w, `<text x="%d" y="%d">makespan %.4g, bubble %.1f%%</text>`+"\n",
		padX, height-6, t.Makespan, 100*t.Bubble)
	_, err := fmt.Fprintln(w, `</svg>`)
	return err
}
