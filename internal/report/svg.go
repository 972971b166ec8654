package report

// Hand-rolled inline SVG charts. Everything renders into static markup with
// CSS-class styling (classes resolve to custom properties declared in the
// page <style>, so the same SVG adapts to light and dark). Native <title>
// elements provide hover tooltips without a line of script.

import (
	"fmt"
	"html"
	"math"
	"strconv"
	"strings"
)

func esc(s string) string { return html.EscapeString(s) }

// fnum renders a value compactly: integers plainly, everything else with
// four significant digits.
func fnum(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "–"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e12 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}

// axisMax rounds v up to a 1/2/5 × 10^k "nice" bound for a y axis.
func axisMax(v float64) float64 {
	if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return 1
	}
	exp := math.Floor(math.Log10(v))
	base := math.Pow(10, exp)
	for _, m := range []float64{1, 2, 5, 10} {
		if m*base >= v {
			return m * base
		}
	}
	return 10 * base
}

// --- horizontal bar chart ---------------------------------------------------

type barRow struct {
	Label string
	Value float64
	Class string // series class: s1, s2, s3
	Note  string // extra tooltip text
}

func barChart(rows []barRow) string {
	if len(rows) == 0 {
		return ""
	}
	const (
		labelW = 190.0
		plotW  = 430.0
		valW   = 80.0
		rowH   = 26.0
		barH   = 14.0
	)
	maxV := 0.0
	for _, r := range rows {
		if r.Value > maxV {
			maxV = r.Value
		}
	}
	if maxV == 0 {
		maxV = 1
	}
	w := labelW + plotW + valW
	h := rowH * float64(len(rows))
	var b strings.Builder
	fmt.Fprintf(&b, `<svg viewBox="0 0 %g %g" width="%g" height="%g" role="img">`, w, h, w, h)
	// baseline
	fmt.Fprintf(&b, `<line class="axis" x1="%g" y1="0" x2="%g" y2="%g"/>`, labelW, labelW, h)
	for i, r := range rows {
		y := float64(i) * rowH
		bw := r.Value / maxV * plotW
		if r.Value > 0 && bw < 1 {
			bw = 1
		}
		fmt.Fprintf(&b, `<text class="lbl" x="%g" y="%g" text-anchor="end">%s</text>`,
			labelW-8, y+rowH/2+4, esc(r.Label))
		tip := fmt.Sprintf("%s: %s", r.Label, fnum(r.Value))
		if r.Note != "" {
			tip += " — " + r.Note
		}
		fmt.Fprintf(&b, `<rect class="bar %s" x="%g" y="%g" width="%g" height="%g" rx="2"><title>%s</title></rect>`,
			r.Class, labelW, y+(rowH-barH)/2, bw, barH, esc(tip))
		fmt.Fprintf(&b, `<text class="val" x="%g" y="%g">%s</text>`,
			labelW+bw+6, y+rowH/2+4, fnum(r.Value))
	}
	b.WriteString(`</svg>`)
	return b.String()
}

// --- stacked horizontal bars ------------------------------------------------

// stackSeg is one segment of a stacked bar.
type stackSeg struct {
	Name  string
	Value float64
	Class string // fill class: s1..s3 or q0..q11
}

// stackRow is one stacked bar: its segments render left to right in order,
// scaled against the largest row total so rows stay comparable.
type stackRow struct {
	Label string
	Segs  []stackSeg
}

func stackedBar(rows []stackRow) string {
	if len(rows) == 0 {
		return ""
	}
	const (
		labelW = 90.0
		plotW  = 530.0
		valW   = 80.0
		rowH   = 26.0
		barH   = 16.0
	)
	maxT := 0.0
	for _, r := range rows {
		t := 0.0
		for _, s := range r.Segs {
			t += s.Value
		}
		if t > maxT {
			maxT = t
		}
	}
	if maxT == 0 {
		return ""
	}
	w := labelW + plotW + valW
	h := rowH * float64(len(rows))
	var b strings.Builder
	fmt.Fprintf(&b, `<svg viewBox="0 0 %g %g" width="%g" height="%g" role="img">`, w, h, w, h)
	fmt.Fprintf(&b, `<line class="axis" x1="%g" y1="0" x2="%g" y2="%g"/>`, labelW, labelW, h)
	for i, r := range rows {
		y := float64(i) * rowH
		fmt.Fprintf(&b, `<text class="lbl" x="%g" y="%g" text-anchor="end">%s</text>`,
			labelW-8, y+rowH/2+4, esc(r.Label))
		total := 0.0
		for _, s := range r.Segs {
			total += s.Value
		}
		x := labelW
		for _, s := range r.Segs {
			if s.Value <= 0 {
				continue
			}
			sw := s.Value / maxT * plotW
			tip := fmt.Sprintf("%s · %s: %s (%.1f%%)", r.Label, s.Name, fnum(s.Value), 100*s.Value/total)
			fmt.Fprintf(&b, `<rect class="%s" x="%g" y="%g" width="%g" height="%g"><title>%s</title></rect>`,
				s.Class, x, y+(rowH-barH)/2, sw, barH, esc(tip))
			x += sw
		}
		fmt.Fprintf(&b, `<text class="val" x="%g" y="%g">%s</text>`,
			x+6, y+rowH/2+4, fnum(total))
	}
	b.WriteString(`</svg>`)
	return b.String()
}

// --- line chart -------------------------------------------------------------

type pt struct{ X, Y float64 }

type series struct {
	Name  string
	Class string // ls1, ls2, ls3
	Pts   []pt
}

// lineChart plots one or more series over a shared linear x domain.
// xFmt/yFmt format tick labels (nil → fnum).
func lineChart(ss []series, xFmt, yFmt func(float64) string) string {
	const (
		w, h           = 560.0, 200.0
		ml, mr, mt, mb = 54.0, 16.0, 10.0, 28.0
	)
	if xFmt == nil {
		xFmt = fnum
	}
	if yFmt == nil {
		yFmt = fnum
	}
	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymax := 0.0
	n := 0
	for _, s := range ss {
		for _, p := range s.Pts {
			if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
				continue
			}
			n++
			xmin = math.Min(xmin, p.X)
			xmax = math.Max(xmax, p.X)
			ymax = math.Max(ymax, p.Y)
		}
	}
	if n == 0 {
		return ""
	}
	if xmax <= xmin {
		xmax = xmin + 1
	}
	ymax = axisMax(ymax)
	sx := func(x float64) float64 { return ml + (x-xmin)/(xmax-xmin)*(w-ml-mr) }
	sy := func(y float64) float64 { return h - mb - y/ymax*(h-mt-mb) }
	var b strings.Builder
	fmt.Fprintf(&b, `<svg viewBox="0 0 %g %g" width="%g" height="%g" role="img">`, w, h, w, h)
	for i := 0; i <= 4; i++ {
		y := ymax * float64(i) / 4
		cls := "grid"
		if i == 0 {
			cls = "axis"
		}
		fmt.Fprintf(&b, `<line class="%s" x1="%g" y1="%g" x2="%g" y2="%g"/>`, cls, ml, sy(y), w-mr, sy(y))
		fmt.Fprintf(&b, `<text class="tick" x="%g" y="%g" text-anchor="end">%s</text>`, ml-6, sy(y)+4, esc(yFmt(y)))
	}
	for i := 0; i <= 4; i++ {
		x := xmin + (xmax-xmin)*float64(i)/4
		anchor := "middle"
		if i == 0 {
			anchor = "start"
		} else if i == 4 {
			anchor = "end"
		}
		fmt.Fprintf(&b, `<text class="tick" x="%g" y="%g" text-anchor="%s">%s</text>`, sx(x), h-mb+16, anchor, esc(xFmt(x)))
	}
	for _, s := range ss {
		var ptsb strings.Builder
		for _, p := range s.Pts {
			if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
				continue
			}
			fmt.Fprintf(&ptsb, "%.1f,%.1f ", sx(p.X), sy(p.Y))
		}
		fmt.Fprintf(&b, `<polyline class="line %s" points="%s"><title>%s</title></polyline>`,
			s.Class, strings.TrimSpace(ptsb.String()), esc(s.Name))
	}
	b.WriteString(`</svg>`)
	return b.String()
}

// --- timeline ---------------------------------------------------------------

// spanBox is one slice on a timeline lane (times in seconds).
type spanBox struct {
	Lane       int
	Start, End float64
	Label      string
	Class      string // bar class: s1, s2, s3
	Tip        string // tooltip; Label+duration when empty
}

// maxTimelineLanes caps the lanes a timeline draws.
const maxTimelineLanes = 1024

// timelineChart lays spans out on horizontal lanes (one per worker slot)
// over a shared seconds axis — a static Gantt strip of the sweep.
func timelineChart(lanes int, boxes []spanBox, laneLabel func(int) string) string {
	// A corrupt worker count must not draw millions of lanes; boxes on
	// lanes past the cap are skipped like any out-of-range lane.
	lanes = min(lanes, maxTimelineLanes)
	if lanes <= 0 || len(boxes) == 0 {
		return ""
	}
	const (
		labelW = 70.0
		plotW  = 690.0
		laneH  = 26.0
		boxH   = 16.0
		axisH  = 24.0
	)
	tmax := 0.0
	for _, bx := range boxes {
		if bx.End > tmax {
			tmax = bx.End
		}
	}
	if tmax <= 0 {
		tmax = 1
	}
	w := labelW + plotW
	h := laneH*float64(lanes) + axisH
	sx := func(t float64) float64 { return labelW + t/tmax*plotW }
	var b strings.Builder
	fmt.Fprintf(&b, `<svg viewBox="0 0 %g %g" width="%g" height="%g" role="img">`, w, h, w, h)
	for i := 0; i < lanes; i++ {
		y := float64(i) * laneH
		fmt.Fprintf(&b, `<line class="grid" x1="%g" y1="%g" x2="%g" y2="%g"/>`,
			labelW, y+laneH, w, y+laneH)
		fmt.Fprintf(&b, `<text class="lbl" x="%g" y="%g" text-anchor="end">%s</text>`,
			labelW-8, y+laneH/2+4, esc(laneLabel(i)))
	}
	for i := 0; i <= 4; i++ {
		t := tmax * float64(i) / 4
		anchor := "middle"
		if i == 0 {
			anchor = "start"
		} else if i == 4 {
			anchor = "end"
		}
		fmt.Fprintf(&b, `<text class="tick" x="%g" y="%g" text-anchor="%s">%ss</text>`,
			sx(t), h-6, anchor, fnum(t))
	}
	fmt.Fprintf(&b, `<line class="axis" x1="%g" y1="0" x2="%g" y2="%g"/>`, labelW, labelW, h-axisH+4)
	for _, bx := range boxes {
		if bx.Lane < 0 || bx.Lane >= lanes || bx.End < bx.Start {
			continue
		}
		x := sx(bx.Start)
		bw := sx(bx.End) - x
		if bw < 1 {
			bw = 1
		}
		y := float64(bx.Lane)*laneH + (laneH-boxH)/2
		tip := bx.Tip
		if tip == "" {
			tip = fmt.Sprintf("%s: %s–%ss", bx.Label, fnum(bx.Start), fnum(bx.End))
		}
		fmt.Fprintf(&b, `<rect class="bar %s" x="%g" y="%g" width="%g" height="%g" rx="2"><title>%s</title></rect>`,
			bx.Class, x, y, bw, boxH, esc(tip))
		// Inline label only when the slice is wide enough to hold it.
		if bw > float64(len(bx.Label))*6+8 {
			fmt.Fprintf(&b, `<text class="val" x="%g" y="%g">%s</text>`,
				x+4, y+boxH-4, esc(bx.Label))
		}
	}
	b.WriteString(`</svg>`)
	return b.String()
}

// --- heatmap ----------------------------------------------------------------

const rampSteps = 12

// heatmap renders a channels × banks grid. vals is indexed [row][col];
// rowLabel/colLabel produce the axis captions; unit suffixes the tooltip.
func heatmap(vals [][]float64, rowLabel, colLabel func(int) string, unit string) string {
	if len(vals) == 0 || len(vals[0]) == 0 {
		return ""
	}
	const (
		cw, ch  = 36.0, 22.0
		gap     = 2.0
		labW    = 40.0
		topH    = 18.0
		legendH = 34.0
	)
	rows, cols := len(vals), len(vals[0])
	maxV := 0.0
	for _, r := range vals {
		for _, v := range r {
			if v > maxV {
				maxV = v
			}
		}
	}
	w := labW + float64(cols)*(cw+gap)
	h := topH + float64(rows)*(ch+gap) + legendH
	var b strings.Builder
	fmt.Fprintf(&b, `<svg viewBox="0 0 %g %g" width="%g" height="%g" role="img">`, w, h, w, h)
	for c := 0; c < cols; c++ {
		fmt.Fprintf(&b, `<text class="tick" x="%g" y="%g" text-anchor="middle">%s</text>`,
			labW+float64(c)*(cw+gap)+cw/2, topH-5, esc(colLabel(c)))
	}
	for r := 0; r < rows; r++ {
		y := topH + float64(r)*(ch+gap)
		fmt.Fprintf(&b, `<text class="tick" x="%g" y="%g" text-anchor="end">%s</text>`,
			labW-6, y+ch/2+4, esc(rowLabel(r)))
		for c := 0; c < cols && c < len(vals[r]); c++ {
			v := vals[r][c]
			step := 0
			if maxV > 0 {
				step = int(v / maxV * float64(rampSteps-1))
				if step >= rampSteps {
					step = rampSteps - 1
				}
			}
			fmt.Fprintf(&b, `<rect class="q%d" x="%g" y="%g" width="%g" height="%g"><title>%s %s: %s %s</title></rect>`,
				step, labW+float64(c)*(cw+gap), y, cw, ch,
				esc(rowLabel(r)), esc(colLabel(c)), fnum(v), esc(unit))
		}
	}
	// legend: the ramp with min/max annotations
	ly := topH + float64(rows)*(ch+gap) + 10
	lw := 14.0
	for i := 0; i < rampSteps; i++ {
		fmt.Fprintf(&b, `<rect class="q%d" x="%g" y="%g" width="%g" height="10"/>`,
			i, labW+float64(i)*(lw+1), ly, lw)
	}
	fmt.Fprintf(&b, `<text class="tick" x="%g" y="%g">0</text>`, labW, ly+22)
	fmt.Fprintf(&b, `<text class="tick" x="%g" y="%g" text-anchor="end">%s %s</text>`,
		labW+rampSteps*(lw+1), ly+22, fnum(maxV), esc(unit))
	b.WriteString(`</svg>`)
	return b.String()
}
