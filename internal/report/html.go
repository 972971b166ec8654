package report

// HTML assembly. One self-contained page: inline <style> only, inline SVG
// only, no scripts, no fonts, no fetches. Light and dark render from the
// same markup via CSS custom properties (prefers-color-scheme plus an
// explicit data-theme override hook).

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"lazydram/internal/energy"
	"lazydram/internal/obs"
)

const pageCSS = `
:root {
  color-scheme: light dark;
  --bg: #fcfcfb; --surface: #ffffff;
  --text: #0b0b0b; --text-2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7; --hairline: #e1e0d9;
  --s1: #2a78d6; --s2: #eb6834; --s3: #1baf7a;
  --q0:#cde2fb; --q1:#b7d3f6; --q2:#9ec5f4; --q3:#86b6ef; --q4:#6da7ec;
  --q5:#5598e7; --q6:#3987e5; --q7:#2a78d6; --q8:#1c5cab; --q9:#184f95;
  --q10:#104281; --q11:#0d366b;
}
@media (prefers-color-scheme: dark) {
  :root {
    --bg: #1a1a19; --surface: #232322;
    --text: #ffffff; --text-2: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --axis: #383835; --hairline: #2c2c2a;
    --s1: #3987e5; --s2: #d95926; --s3: #199e70;
  }
}
[data-theme="dark"] {
  --bg: #1a1a19; --surface: #232322;
  --text: #ffffff; --text-2: #c3c2b7; --muted: #898781;
  --grid: #2c2c2a; --axis: #383835; --hairline: #2c2c2a;
  --s1: #3987e5; --s2: #d95926; --s3: #199e70;
}
* { box-sizing: border-box; }
body {
  margin: 0 auto; padding: 24px 28px 64px; max-width: 1200px;
  background: var(--bg); color: var(--text);
  font: 14px/1.45 system-ui, sans-serif;
  font-variant-numeric: tabular-nums;
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 16px; margin: 0 0 2px; }
.sub { color: var(--text-2); margin: 0 0 20px; }
section {
  background: var(--surface); border: 1px solid var(--hairline);
  border-radius: 8px; padding: 16px 18px; margin: 0 0 16px;
}
.cap { color: var(--muted); font-size: 12px; margin: 0 0 10px; }
.tiles { display: flex; flex-wrap: wrap; gap: 10px; margin: 10px 0; }
.tile {
  border: 1px solid var(--hairline); border-radius: 6px;
  padding: 8px 14px; min-width: 110px;
}
.tile b { display: block; font-size: 18px; font-weight: 600; }
.tile span { color: var(--muted); font-size: 11px; }
.minis { display: flex; flex-wrap: wrap; gap: 14px; }
figure.mini { margin: 0; }
figcaption { color: var(--text-2); font-size: 12px; margin-bottom: 2px; }
.legend { display: flex; gap: 16px; color: var(--text-2); font-size: 12px; margin: 4px 0 8px; }
.legend i {
  display: inline-block; width: 10px; height: 10px; border-radius: 2px;
  margin-right: 5px;
}
.legend .s1 { background: var(--s1); } .legend .s2 { background: var(--s2); }
.legend .s3 { background: var(--s3); }
table { border-collapse: collapse; margin: 8px 0; }
th, td { padding: 4px 12px 4px 0; text-align: right; }
th:first-child, td:first-child { text-align: left; }
th { color: var(--muted); font-weight: 500; font-size: 12px; border-bottom: 1px solid var(--hairline); }
td { border-bottom: 1px solid var(--hairline); }
svg { display: block; max-width: 100%; }
svg text { font: 11px system-ui, sans-serif; fill: var(--muted); }
svg text.lbl { fill: var(--text-2); }
svg text.val { fill: var(--text-2); }
line.grid { stroke: var(--grid); stroke-width: 1; }
line.axis { stroke: var(--axis); stroke-width: 1; }
.line { fill: none; stroke-width: 2; }
.line.ls1 { stroke: var(--s1); } .line.ls2 { stroke: var(--s2); }
.line.ls3 { stroke: var(--s3); }
.bar.s1 { fill: var(--s1); } .bar.s2 { fill: var(--s2); } .bar.s3 { fill: var(--s3); }
.q0{fill:var(--q0)}.q1{fill:var(--q1)}.q2{fill:var(--q2)}.q3{fill:var(--q3)}
.q4{fill:var(--q4)}.q5{fill:var(--q5)}.q6{fill:var(--q6)}.q7{fill:var(--q7)}
.q8{fill:var(--q8)}.q9{fill:var(--q9)}.q10{fill:var(--q10)}.q11{fill:var(--q11)}
`

func BuildHTML(docs []*Doc) string {
	var b strings.Builder
	b.WriteString("<!doctype html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n")
	b.WriteString("<meta name=\"viewport\" content=\"width=device-width, initial-scale=1\">\n")
	title := "lazysim report"
	if len(docs) == 2 {
		title = "lazysim comparison"
	}
	fmt.Fprintf(&b, "<title>%s</title>\n<style>%s</style>\n</head>\n<body>\n", esc(title), pageCSS)
	fmt.Fprintf(&b, "<h1>%s</h1>\n", esc(title))
	var names []string
	for _, d := range docs {
		names = append(names, d.title())
	}
	fmt.Fprintf(&b, "<p class=\"sub\">%s</p>\n", esc(strings.Join(names, "  vs  ")))
	if len(docs) == 2 {
		writeComparison(&b, docs[0], docs[1])
	}
	for _, d := range docs {
		writeDoc(&b, d, len(docs) > 1)
	}
	b.WriteString("</body>\n</html>\n")
	return b.String()
}

// --- shared fragments -------------------------------------------------------

type tile struct{ Label, Value string }

func writeTiles(b *strings.Builder, ts []tile) {
	b.WriteString(`<div class="tiles">`)
	for _, t := range ts {
		fmt.Fprintf(b, `<div class="tile"><b>%s</b><span>%s</span></div>`, esc(t.Value), esc(t.Label))
	}
	b.WriteString("</div>\n")
}

func writeTable(b *strings.Builder, headers []string, rows [][]string) {
	b.WriteString("<table><tr>")
	for _, h := range headers {
		fmt.Fprintf(b, "<th>%s</th>", esc(h))
	}
	b.WriteString("</tr>\n")
	for _, r := range rows {
		b.WriteString("<tr>")
		for _, c := range r {
			fmt.Fprintf(b, "<td>%s</td>", esc(c))
		}
		b.WriteString("</tr>\n")
	}
	b.WriteString("</table>\n")
}

func openSection(b *strings.Builder, title, caption string) {
	fmt.Fprintf(b, "<section>\n<h2>%s</h2>\n", esc(title))
	if caption != "" {
		fmt.Fprintf(b, "<p class=\"cap\">%s</p>\n", esc(caption))
	}
}

func mini(b *strings.Builder, caption, svg string) {
	if svg == "" {
		return
	}
	fmt.Fprintf(b, "<figure class=\"mini\"><figcaption>%s</figcaption>%s</figure>\n", esc(caption), svg)
}

// --- per-document sections --------------------------------------------------

func writeDoc(b *strings.Builder, d *Doc, named bool) {
	suffix := ""
	if named {
		suffix = " — " + d.title()
	}

	// A sweep document (lazysim -sweep -json / experiments -runlog) has no
	// single-run identity: render the sweep dashboard instead of the
	// single-run summary tiles.
	if d.App == "" && d.CoreCycles == 0 {
		if d.Sweep != nil {
			writeSweepSection(b, d.Sweep, suffix)
		}
		return
	}

	openSection(b, "Run summary"+suffix, "")
	writeTiles(b, []tile{
		{"IPC", fnum(d.IPC)},
		{"BW utilisation", fnum(d.BWUtil)},
		{"AMS coverage", fnum(d.Coverage)},
		{"app error", fnum(d.AppError)},
		{"row energy (nJ)", fnum(d.RowEnergyNJ)},
		{"mem energy (nJ)", fnum(d.MemEnergyNJ)},
		{"activations", fnum(float64(d.Activations))},
		{"dropped reads", fnum(float64(d.Dropped))},
	})
	writeTable(b, []string{"core cycles", "instructions", "reads", "writes", "avg RBL", "queue occ", "mean delay", "final delay", "mean thRBL", "final thRBL"},
		[][]string{{
			fnum(float64(d.CoreCycles)), fnum(float64(d.Instructions)),
			fnum(float64(d.Reads)), fnum(float64(d.Writes)),
			fnum(d.AvgRBL), fnum(d.QueueOcc),
			fnum(d.MeanDelay), fnum(float64(d.FinalDelay)),
			fnum(d.MeanThRBL), fnum(float64(d.FinalThRBL)),
		}})
	b.WriteString("</section>\n")

	t := d.Telemetry
	if t != nil && t.Audit != nil {
		writeAuditSection(b, t.Audit, suffix)
		writeAdaptSection(b, t.Audit, suffix)
	}
	if t != nil && len(t.Series) > 0 {
		writeSeriesSection(b, t, suffix)
	}
	if t != nil && len(t.Stages) > 0 {
		writeStagesSection(b, t.Stages, suffix)
	}
	writeHeatmapSection(b, d, suffix)
	if t != nil && t.Census != nil {
		writeCensusSection(b, t.Census, suffix)
	}
	if t != nil && t.Quality != nil {
		writeQualitySection(b, t.Quality, suffix)
	}
	if t != nil && t.Fault != nil {
		writeFaultSection(b, t.Fault, suffix)
	}
}

func writeSweepSection(b *strings.Builder, s *obs.SweepSummary, suffix string) {
	openSection(b, "Sweep dashboard"+suffix,
		fmt.Sprintf("Run-lifecycle log of one exp.Runner sweep: %d Run calls over %d worker slots; singleflight dedupe resolved %d of them without simulating.",
			s.Runs, s.Workers, s.Deduped))
	writeTiles(b, []tile{
		{"runs", fnum(float64(s.Runs))},
		{"executed", fnum(float64(s.Executed))},
		{"dedup-joined", fnum(float64(s.Deduped))},
		{"errors", fnum(float64(s.Errors))},
		{"prefetch hits", fnum(float64(s.PrefetchHits))},
		{"worker occupancy", fmt.Sprintf("%.0f%%", 100*s.Timing.WorkerOccupancy)},
		{"wall (s)", fnum(s.Timing.WallSeconds)},
		{"sim cycles/s", fnum(s.Timing.CyclesPerSec)},
	})

	// Worker timeline: executed spans laid out on their slot's lane.
	var boxes []spanBox
	for _, sp := range s.Spans {
		if sp.StartedUS < 0 || sp.FinishedUS < 0 || sp.Worker < 0 {
			continue
		}
		cls := "s1"
		if sp.State == "error" {
			cls = "s2"
		}
		tip := fmt.Sprintf("%s/%s: %.3fs on worker %d (%s, %s cycles", sp.App, sp.Scheme,
			float64(sp.WallUS)/1e6, sp.Worker, sp.Origin, fnum(float64(sp.SimCycles)))
		if sp.Joins > 0 {
			tip += fmt.Sprintf(", %d joins", sp.Joins)
		}
		tip += ")"
		if sp.Err != "" {
			tip += " — " + sp.Err
		}
		boxes = append(boxes, spanBox{
			Lane: sp.Worker, Start: float64(sp.StartedUS) / 1e6, End: float64(sp.FinishedUS) / 1e6,
			Label: sp.App + "/" + sp.Scheme, Class: cls, Tip: tip,
		})
	}
	mini(b, "worker timeline (seconds; hover for the run)",
		timelineChart(s.Workers, boxes, func(i int) string { return fmt.Sprintf("worker %d", i) }))

	b.WriteString(`<div class="minis">`)
	// Run-duration CDF over executed spans.
	var walls []float64
	for _, sp := range s.Spans {
		if sp.WallUS > 0 {
			walls = append(walls, float64(sp.WallUS)/1e6)
		}
	}
	if len(walls) > 0 {
		sort.Float64s(walls)
		pts := make([]pt, 0, len(walls))
		for i, wv := range walls {
			pts = append(pts, pt{wv, float64(i+1) / float64(len(walls))})
		}
		mini(b, "run-duration CDF (seconds)", lineChart([]series{{"run wall", "ls1", pts}}, nil, nil))
	}
	// Dedupe effectiveness.
	mini(b, "dedupe effectiveness (runs by outcome)", barChart([]barRow{
		{Label: "executed", Value: float64(s.Executed), Class: "s1"},
		{Label: "dedup-joined", Value: float64(s.Deduped), Class: "s3", Note: "joined an in-flight or memoized run"},
		{Label: "· of which prefetch hits", Value: float64(s.PrefetchHits), Class: "s3", Note: "the joined flight came from a prefetch plan"},
		{Label: "errors", Value: float64(s.Errors), Class: "s2"},
	}))
	// Queue-wait histogram (µs buckets from obs.Histogram).
	if rows := histRows(errBuckets(s.Timing.QueueWaitHist), "s1"); len(rows) > 0 {
		mini(b, "queue-wait histogram (µs, log-linear buckets)", barChart(rows))
	}
	b.WriteString("</div>\n")

	if s.Errors > 0 {
		fmt.Fprintf(b, "<p class=\"cap\">Failed runs:</p>\n")
		var rows [][]string
		for _, sp := range s.Spans {
			if sp.State == "error" {
				rows = append(rows, []string{sp.App, sp.Scheme, sp.Origin, sp.Err})
			}
		}
		writeTable(b, []string{"app", "scheme", "origin", "error"}, rows)
	}
	b.WriteString("</section>\n")
}

func writeFaultSection(b *strings.Builder, f *obs.FaultSummary, suffix string) {
	openSection(b, "Fault injection"+suffix,
		fmt.Sprintf("Deterministic DRAM error model (seed %d, bus BER %s, weak-cell density %s): per-mode injected flips and the error they caused in the returned data.",
			f.Seed, fnum(f.BusBER), fnum(f.WeakDensity)))
	writeTiles(b, []tile{
		{"reads offered", fnum(float64(f.Reads))},
		{"corrupted reads", fnum(float64(f.CorruptedReads))},
		{"total flips", fnum(float64(f.TotalFlips))},
		{"weak rows", fnum(float64(f.WeakRows))},
		{"weak cells", fnum(float64(f.WeakCells))},
		{"digest", fmt.Sprintf("%016x", f.Digest)},
	})
	modes := []barRow{
		{Label: "activation (reduced-tRCD)", Value: float64(f.ActFlips), Class: "s2"},
		{Label: "retention (over-aged row)", Value: float64(f.RetFlips), Class: "s3"},
		{Label: "bus transient", Value: float64(f.BusFlips), Class: "s1"},
	}
	mini(b, "injected flips by mode", barChart(modes))
	if q := f.Quality; q != nil && q.Lines > 0 {
		writeTiles(b, []tile{
			{"corrupted lines scored", fnum(float64(q.Lines))},
			{"words", fnum(float64(q.Words))},
			{"mean rel error", fnum(q.MeanRelError)},
			{"rel p99", fnum(q.RelP99)},
			{"max rel error", fnum(q.MaxRelError)},
		})
		b.WriteString(`<div class="minis">`)
		mini(b, "injected relative error histogram (words)", barChart(histRows(q.RelHist, "s2")))
		mini(b, "injected absolute error histogram (words)", barChart(histRows(q.AbsHist, "s2")))
		b.WriteString("</div>\n")
	}
	b.WriteString("</section>\n")
}

func writeAuditSection(b *strings.Builder, a *obs.AuditSummary, suffix string) {
	openSection(b, "Scheduler decisions"+suffix,
		"Every DMS delay hold/expiry and AMS drop/skip the memory controllers recorded, grouped by reason.")
	writeTiles(b, []tile{
		{"decisions", fnum(float64(a.Total))},
		{"DMS delay holds", fnum(float64(a.DMSDelayHolds))},
		{"DMS delay expiries", fnum(float64(a.DMSDelayExpiries))},
		{"AMS drops", fnum(float64(a.AMSDrops))},
		{"AMS skips", fnum(float64(a.AMSSkips))},
	})
	if len(a.Reasons) > 0 {
		b.WriteString(`<div class="legend"><span><i class="s1"></i>DMS</span><span><i class="s2"></i>AMS</span></div>` + "\n")
		rows := make([]barRow, 0, len(a.Reasons))
		for _, r := range a.Reasons {
			cls := "s1"
			if r.Unit == "ams" {
				cls = "s2"
			}
			rows = append(rows, barRow{
				Label: r.Unit + " · " + r.Reason,
				Value: float64(r.Count),
				Class: cls,
				Note:  r.Kind,
			})
		}
		sort.SliceStable(rows, func(i, j int) bool { return rows[i].Value > rows[j].Value })
		b.WriteString(barChart(rows))
	}
	b.WriteString("</section>\n")
}

func writeAdaptSection(b *strings.Builder, a *obs.AuditSummary, suffix string) {
	if len(a.Adapt) == 0 {
		return
	}
	// Adaptation is near-identical across channels; plot the lowest channel
	// present to keep each panel a single unambiguous series.
	ch := a.Adapt[0].Channel
	for _, p := range a.Adapt {
		if p.Channel < ch {
			ch = p.Channel
		}
	}
	var delay, bw, th, cov []pt
	for _, p := range a.Adapt {
		if p.Channel != ch {
			continue
		}
		x := float64(p.Cycle)
		switch p.Unit {
		case "dms":
			delay = append(delay, pt{x, float64(p.Delay)})
			bw = append(bw, pt{x, p.BWUtil})
		case "ams":
			th = append(th, pt{x, float64(p.ThRBL)})
			cov = append(cov, pt{x, p.Coverage})
		}
	}
	openSection(b, "Dyn adaptation"+suffix,
		fmt.Sprintf("Per-window controller state on channel %d (one point per profile window).", ch))
	b.WriteString(`<div class="minis">`)
	if len(delay) > 0 {
		mini(b, "DMS delay (mem cycles)", lineChart([]series{{"DMS delay", "ls1", delay}}, nil, nil))
		mini(b, "DMS window BW utilisation", lineChart([]series{{"BW util", "ls1", bw}}, nil, nil))
	}
	if len(th) > 0 {
		mini(b, "AMS thRBL", lineChart([]series{{"thRBL", "ls2", th}}, nil, nil))
		mini(b, "AMS running coverage", lineChart([]series{{"coverage", "ls2", cov}}, nil, nil))
	}
	b.WriteString("</div>\n</section>\n")
}

func writeSeriesSection(b *strings.Builder, t *obs.Telemetry, suffix string) {
	var ipc, bw, occ []pt
	for _, s := range t.Series {
		x := float64(s.MemCycle)
		ipc = append(ipc, pt{x, s.IPC})
		bw = append(bw, pt{x, s.BWUtil})
		occ = append(occ, pt{x, s.QueueOcc})
	}
	openSection(b, "Time series"+suffix,
		fmt.Sprintf("Sampled every %d mem cycles over the run (x axis: mem cycle).", t.SampleEvery))
	b.WriteString(`<div class="minis">`)
	mini(b, "IPC", lineChart([]series{{"IPC", "ls1", ipc}}, nil, nil))
	mini(b, "BW utilisation", lineChart([]series{{"BW util", "ls1", bw}}, nil, nil))
	mini(b, "queue occupancy", lineChart([]series{{"queue occ", "ls1", occ}}, nil, nil))
	b.WriteString("</div>\n</section>\n")
}

func writeStagesSection(b *strings.Builder, stages []obs.StageSummary, suffix string) {
	openSection(b, "Request latency by stage"+suffix,
		"Empirical CDF per lifecycle stage from the traced quantiles (x axis: latency in the stage's clock, log scale).")
	xf := func(x float64) string { return fnum(math.Pow(10, x)) }
	b.WriteString(`<div class="minis">`)
	for _, st := range stages {
		if st.Count == 0 {
			continue
		}
		lg := func(v float64) float64 { return math.Log10(math.Max(v, 0.5)) }
		ps := []pt{{lg(float64(st.P50)), 0.50}, {lg(float64(st.P90)), 0.90}, {lg(float64(st.P99)), 0.99}, {lg(float64(st.Max)), 1.0}}
		cap := fmt.Sprintf("%s (%s cycles, n=%d, mean %s)", st.Stage, st.Clock, st.Count, fnum(st.Mean))
		mini(b, cap, lineChart([]series{{st.Stage, "ls1", ps}}, xf, nil))
	}
	b.WriteString("</div>\n</section>\n")
}

func writeHeatmapSection(b *strings.Builder, d *Doc, suffix string) {
	if len(d.EnergyByChannel) == 0 {
		return
	}
	matrix := func(get func(energy.BankEnergy) float64) ([][]float64, bool) {
		out := make([][]float64, len(d.EnergyByChannel))
		any := false
		for i, ce := range d.EnergyByChannel {
			out[i] = make([]float64, len(ce.Banks))
			for j, be := range ce.Banks {
				out[i][j] = get(be)
				if out[i][j] > 0 {
					any = true
				}
			}
		}
		return out, any
	}
	rl := func(i int) string { return fmt.Sprintf("ch%d", d.EnergyByChannel[i].Channel) }
	cl := func(j int) string { return fmt.Sprintf("b%d", j) }
	openSection(b, "Bank heatmaps"+suffix,
		"Per-bank attribution across channels; darker is more.")
	b.WriteString(`<div class="minis">`)
	if m, ok := matrix(func(be energy.BankEnergy) float64 { return be.RowNJ }); ok {
		mini(b, "row energy (nJ)", heatmap(m, rl, cl, "nJ"))
	}
	if m, ok := matrix(func(be energy.BankEnergy) float64 { return float64(be.DMSDelayCycles) }); ok {
		mini(b, "DMS delay cycles", heatmap(m, rl, cl, "cycles"))
	}
	if m, ok := matrix(func(be energy.BankEnergy) float64 { return float64(be.AMSDrops) }); ok {
		mini(b, "AMS dropped reads", heatmap(m, rl, cl, "drops"))
	}
	if m, ok := matrix(func(be energy.BankEnergy) float64 { return float64(be.RowConflicts) }); ok {
		mini(b, "row conflicts", heatmap(m, rl, cl, "conflicts"))
	}
	b.WriteString("</div>\n</section>\n")
}

func bucketLabel(bk obs.ErrBucket) string {
	if bk.Lo == 0 && bk.Hi == 0 {
		return "exact"
	}
	if bk.Lo == 0 {
		return "< " + fe(bk.Hi)
	}
	return fe(bk.Lo) + " – " + fe(bk.Hi)
}

func fe(v float64) string {
	if math.IsInf(v, 1) {
		return "∞"
	}
	return strings.Replace(fmt.Sprintf("%.0e", v), "e-0", "e-", 1)
}

// errBuckets widens integer histogram buckets for histRows.
func errBuckets(hs []obs.HistBucket) []obs.ErrBucket {
	out := make([]obs.ErrBucket, len(hs))
	for i, h := range hs {
		out[i] = obs.ErrBucket{Lo: float64(h.Lo), Hi: float64(h.Hi), Count: h.Count}
	}
	return out
}

func histRows(hs []obs.ErrBucket, cls string) []barRow {
	rows := make([]barRow, 0, len(hs))
	for _, bk := range hs {
		if bk.Count == 0 {
			continue
		}
		rows = append(rows, barRow{Label: bucketLabel(bk), Value: float64(bk.Count), Class: cls})
	}
	return rows
}

func writeQualitySection(b *strings.Builder, q *obs.QualitySummary, suffix string) {
	openSection(b, "Approximation quality"+suffix,
		"Predicted line values vs ground-truth memory image for every AMS-dropped read (float32 words).")
	writeTiles(b, []tile{
		{"dropped lines scored", fnum(float64(q.Lines))},
		{"words", fnum(float64(q.Words))},
		{"mean rel error", fnum(q.MeanRelError)},
		{"rel p50", fnum(q.RelP50)},
		{"rel p90", fnum(q.RelP90)},
		{"rel p99", fnum(q.RelP99)},
		{"max rel error", fnum(q.MaxRelError)},
	})
	b.WriteString(`<div class="minis">`)
	mini(b, "relative error histogram (words)", barChart(histRows(q.RelHist, "s1")))
	mini(b, "absolute error histogram (words)", barChart(histRows(q.AbsHist, "s1")))
	b.WriteString("</div>\n")
	if len(q.Worst) > 0 {
		fmt.Fprintf(b, "<p class=\"cap\">Worst-offending lines by mean relative error:</p>\n")
		var rows [][]string
		for _, w := range q.Worst {
			rows = append(rows, []string{
				fmt.Sprintf("0x%x", w.Addr), fnum(float64(w.Cycle)), fnum(float64(w.Words)),
				fnum(w.MeanAbs), fnum(w.MeanRel), fnum(w.MaxRel),
			})
		}
		writeTable(b, []string{"line addr", "cycle", "words", "mean abs", "mean rel", "max rel"}, rows)
	}
	b.WriteString("</section>\n")
}

// --- cycle census -----------------------------------------------------------

func writeCensusSection(b *strings.Builder, c *obs.CensusSummary, suffix string) {
	openSection(b, "Cycle census"+suffix,
		"Exact latency provenance: every retired request's queue+service cycles charged to one stall cause, every bank-cycle classified into one residency state, and the partition-cycle census that sizes event-driven skip-ahead (ROADMAP item 2).")
	if c.InvariantError != "" {
		fmt.Fprintf(b, "<p class=\"cap\">⚠ Σ-invariant violation: %s</p>\n", esc(c.InvariantError))
	}
	writeTiles(b, []tile{
		{"requests", fnum(float64(c.Requests))},
		{"latency cycles", fnum(float64(c.LatencyCycles))},
		{"attributed cycles", fnum(float64(c.AttributedCycles))},
		{"skippable fraction", fmt.Sprintf("%.1f%%", 100*c.SkippableFrac)},
		{"gap p50 / p99 (cycles)", fmt.Sprintf("%s / %s", fnum(float64(c.GapP50)), fnum(float64(c.GapP99)))},
		{"max gap", fnum(float64(c.GapMax))},
	})

	// Stall-cause stacked bars: machine-wide decomposition on top, one bar
	// per channel below, segments in taxonomy order so colors line up.
	if len(c.Stalls) > 0 {
		causeClass := make(map[string]string, len(c.Stalls))
		var legend strings.Builder
		legend.WriteString(`<div class="legend">`)
		for i, st := range c.Stalls {
			cls := fmt.Sprintf("q%d", (i*11/max(1, len(c.Stalls)-1))+1)
			causeClass[st.Cause] = cls
			fmt.Fprintf(&legend, `<span><i class="%s"></i>%s</span>`, cls, esc(st.Cause))
		}
		legend.WriteString("</div>\n")
		rows := []stackRow{machineStallRow(c, causeClass)}
		for _, ch := range c.Channels {
			row := stackRow{Label: fmt.Sprintf("ch%d", ch.Channel)}
			for _, st := range c.Stalls { // taxonomy order, not map order
				if v := ch.StallCycles[st.Cause]; v > 0 {
					row.Segs = append(row.Segs, stackSeg{Name: st.Cause, Value: float64(v), Class: causeClass[st.Cause]})
				}
			}
			rows = append(rows, row)
		}
		b.WriteString(legend.String())
		mini(b, "stall-cause decomposition (cycles; every bar sums to its requests' measured latency)", stackedBar(rows))
	}

	b.WriteString(`<div class="minis">`)
	// Bank-residency heatmap: one row per channel·bank, one column per state.
	states := []string{"serving", "dms_held", "timing_wait", "open_idle", "precharging", "idle"}
	var vals [][]float64
	var rowLabels []string
	for _, ch := range c.Channels {
		for _, bk := range ch.Banks {
			rowLabels = append(rowLabels, fmt.Sprintf("ch%d·b%d", ch.Channel, bk.Bank))
			vals = append(vals, []float64{
				float64(bk.Serving), float64(bk.DMSHeld), float64(bk.TimingWait),
				float64(bk.OpenIdle), float64(bk.Precharging), float64(bk.Idle),
			})
		}
	}
	if len(vals) > 0 {
		mini(b, "bank state residency (cycles; each row sums to the elapsed bank-cycles)",
			heatmap(vals, func(i int) string { return rowLabels[i] },
				func(j int) string { return states[j] }, "cycles"))
	}
	// Partition-cycle census and the skip-ahead gap histogram.
	mini(b, "partition-cycle census", barChart([]barRow{
		{Label: "advancing", Value: float64(c.Advancing), Class: "s1", Note: "an architectural event happened"},
		{Label: "timing-wait (skippable)", Value: float64(c.TimingWait), Class: "s2", Note: "work pending, nothing could change — an event-driven loop skips these"},
		{Label: "fully idle", Value: float64(c.Idle), Class: "s3"},
	}))
	if rows := histRows(errBuckets(c.GapHist), "s2"); len(rows) > 0 {
		mini(b, fmt.Sprintf("next-event gap histogram (cycles per skip; mean %s)", fnum(c.GapMean)), barChart(rows))
	}
	b.WriteString("</div>\n")

	if in := c.Ingress; in != nil && in.MSHRFull+in.MergeLimit+in.QueueFull > 0 {
		fmt.Fprintf(b, "<p class=\"cap\">Ingress backpressure (core-cycle retries at the partition boundary, outside the mem-side invariant):</p>\n")
		writeTable(b, []string{"mshr full", "merge limit", "queue full"}, [][]string{{
			fnum(float64(in.MSHRFull)), fnum(float64(in.MergeLimit)), fnum(float64(in.QueueFull)),
		}})
	}
	if c.Host != nil {
		writeHostPhases(b, c.Host)
	}
	b.WriteString("</section>\n")
}

// machineStallRow builds the machine-wide stacked decomposition row.
func machineStallRow(c *obs.CensusSummary, causeClass map[string]string) stackRow {
	row := stackRow{Label: "machine"}
	for _, st := range c.Stalls {
		if st.Cycles > 0 {
			row.Segs = append(row.Segs, stackSeg{Name: st.Cause, Value: float64(st.Cycles), Class: causeClass[st.Cause]})
		}
	}
	return row
}

// writeHostPhases renders the host-side phase profile: where the simulator
// process itself spends wall time, sampled every SampleEvery ticks.
func writeHostPhases(b *strings.Builder, hp *obs.HostPhases) {
	fmt.Fprintf(b, "<p class=\"cap\">Host phase profile (wall time, sampled every %d ticks — not simulated time, excluded from determinism gates):</p>\n", hp.SampleEvery)
	perTick := func(ns, ticks uint64) string {
		if ticks == 0 {
			return "–"
		}
		return fnum(float64(ns)/float64(ticks)) + " ns"
	}
	writeTiles(b, []tile{
		{"core tick (mean)", perTick(hp.CoreNS, hp.CoreTicks)},
		{"mem tick (mean)", perTick(hp.MemNS, hp.MemTicks)},
		{"probe/publish (mean)", perTick(hp.ProbeNS, hp.ProbeTicks)},
	})
}

// --- two-document comparison ------------------------------------------------

func writeComparison(b *strings.Builder, a, c *Doc) {
	openSection(b, "Comparison", fmt.Sprintf("A = %s, B = %s; Δ%% is relative to A.", a.title(), c.title()))
	type metric struct {
		name string
		get  func(*Doc) float64
	}
	metrics := []metric{
		{"IPC", func(d *Doc) float64 { return d.IPC }},
		{"BW utilisation", func(d *Doc) float64 { return d.BWUtil }},
		{"AMS coverage", func(d *Doc) float64 { return d.Coverage }},
		{"app error", func(d *Doc) float64 { return d.AppError }},
		{"row energy (nJ)", func(d *Doc) float64 { return d.RowEnergyNJ }},
		{"mem energy (nJ)", func(d *Doc) float64 { return d.MemEnergyNJ }},
		{"activations", func(d *Doc) float64 { return float64(d.Activations) }},
		{"dropped reads", func(d *Doc) float64 { return float64(d.Dropped) }},
		{"avg RBL", func(d *Doc) float64 { return d.AvgRBL }},
		{"queue occupancy", func(d *Doc) float64 { return d.QueueOcc }},
		{"mean delay", func(d *Doc) float64 { return d.MeanDelay }},
		{"mean thRBL", func(d *Doc) float64 { return d.MeanThRBL }},
	}
	var rows [][]string
	for _, m := range metrics {
		va, vb := m.get(a), m.get(c)
		delta := "–"
		if va != 0 && !math.IsNaN(va) && !math.IsNaN(vb) {
			delta = fmt.Sprintf("%+.2f%%", (vb-va)/math.Abs(va)*100)
		}
		rows = append(rows, []string{m.name, fnum(va), fnum(vb), delta})
	}
	writeTable(b, []string{"metric", "A", "B", "Δ%"}, rows)

	// Decision-reason counts side by side when both documents carry an audit.
	ra, rb := auditReasonMap(a), auditReasonMap(c)
	if len(ra) > 0 || len(rb) > 0 {
		keys := make(map[string]bool)
		for k := range ra {
			keys[k] = true
		}
		for k := range rb {
			keys[k] = true
		}
		sorted := make([]string, 0, len(keys))
		for k := range keys {
			sorted = append(sorted, k)
		}
		sort.Strings(sorted)
		var rrows [][]string
		for _, k := range sorted {
			rrows = append(rrows, []string{k, fnum(float64(ra[k])), fnum(float64(rb[k]))})
		}
		b.WriteString("<p class=\"cap\">Decision reasons:</p>\n")
		writeTable(b, []string{"unit · reason", "A", "B"}, rrows)
	}
	b.WriteString("</section>\n")
}

func auditReasonMap(d *Doc) map[string]uint64 {
	out := map[string]uint64{}
	if d.Telemetry == nil || d.Telemetry.Audit == nil {
		return out
	}
	for _, r := range d.Telemetry.Audit.Reasons {
		out[r.Unit+" · "+r.Reason] = r.Count
	}
	return out
}
