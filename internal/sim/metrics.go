package sim

import (
	"strconv"

	"lazydram/internal/obs"
	"lazydram/internal/stats"
)

// metricsEvery is the live-metrics publication interval in memory cycles.
const metricsEvery = 1024

// channelFamilies are the live per-channel metric families, labeled
// "channel", each read from its partition at every publish.
var channelFamilies = [...]struct {
	name, help string
	kind       obs.MetricKind
	value      func(p *partition) float64
}{
	{"lazysim_channel_activations_total", "Row activations per channel", obs.KindCounter,
		func(p *partition) float64 { return float64(p.st.Activations) }},
	{"lazysim_channel_reads_total", "DRAM column reads per channel", obs.KindCounter,
		func(p *partition) float64 { return float64(p.st.Reads) }},
	{"lazysim_channel_writes_total", "DRAM column writes per channel", obs.KindCounter,
		func(p *partition) float64 { return float64(p.st.Writes) }},
	{"lazysim_channel_ams_drops_total", "AMS-dropped read requests per channel", obs.KindCounter,
		func(p *partition) float64 { return float64(p.st.Dropped) }},
	{"lazysim_channel_queue_occupancy", "Pending-queue occupancy per channel (instantaneous)", obs.KindGauge,
		func(p *partition) float64 { return float64(p.ctrl.Pending()) }},
}

// bankFamilies are the live per-bank metric families, labeled "channel"
// and "bank", each read from the bank's counters at every publish; actNJ is
// the energy profile's per-activation row energy.
var bankFamilies = [...]struct {
	name, help string
	kind       obs.MetricKind
	value      func(b *stats.Bank, actNJ float64) float64
}{
	{"lazysim_bank_activations_total", "Row activations per channel and bank", obs.KindCounter,
		func(b *stats.Bank, _ float64) float64 { return float64(b.Activations) }},
	{"lazysim_bank_row_hits_total", "Row-buffer hits per channel and bank", obs.KindCounter,
		func(b *stats.Bank, _ float64) float64 { return float64(b.RowHits) }},
	{"lazysim_bank_row_misses_total", "Row-buffer misses per channel and bank", obs.KindCounter,
		func(b *stats.Bank, _ float64) float64 { return float64(b.RowMisses) }},
	{"lazysim_bank_row_conflicts_total", "Row-buffer conflicts per channel and bank", obs.KindCounter,
		func(b *stats.Bank, _ float64) float64 { return float64(b.RowConflicts) }},
	{"lazysim_bank_dms_delay_cycles_total", "Cycles the bank's oldest miss was held by the DMS age gate", obs.KindCounter,
		func(b *stats.Bank, _ float64) float64 { return float64(b.DMSDelayCycles) }},
	{"lazysim_bank_ams_drops_total", "AMS-dropped read requests per channel and bank", obs.KindCounter,
		func(b *stats.Bank, _ float64) float64 { return float64(b.AMSDrops) }},
	{"lazysim_bank_row_energy_nj", "Row energy per channel and bank under the configured profile", obs.KindGauge,
		func(b *stats.Bank, actNJ float64) float64 { return float64(b.Activations) * actNJ }},
}

// gpuMetrics caches the registry children the GPU publishes into, so the
// periodic publish is a walk over flat slices of atomic stores and the
// scrape side never touches simulation state.
type gpuMetrics struct {
	coreCycles *obs.Metric
	memCycles  *obs.Metric
	insts      *obs.Metric
	ipc        *obs.Metric
	bwutil     *obs.Metric
	queueOcc   *obs.Metric
	delay      *obs.Metric
	thRBL      *obs.Metric
	rowEnergy  *obs.Metric

	// channel[c][i] is channel c's child of channelFamilies[i];
	// bank[c][b][i] is bank b's child of bankFamilies[i].
	channel [][len(channelFamilies)]*obs.Metric
	bank    [][][len(bankFamilies)]*obs.Metric

	auditReasons []*obs.Metric // indexed by obs.Reason
	qualLines, qualWords,
	qualMeanRel, qualMaxRel *obs.Metric

	// Census families (nil slices unless Obs.Census): machine-level stall
	// decomposition, bank state-residency, and the partition cycle census
	// with its skippable-fraction headline.
	cenStall []*obs.Metric // indexed by obs.StallCause
	cenState []*obs.Metric // indexed by obs.BankState
	cenPart  []*obs.Metric // advancing, timing_wait, idle
	cenReqs, cenLat, cenSkip,
	cenGapP50, cenGapP99 *obs.Metric
	cenGaps *obs.Histogram // publishCensus's scratch
}

func newGPUMetrics(reg *obs.Registry, app, scheme string, nch, nbanks int, census bool) *gpuMetrics {
	m := &gpuMetrics{
		coreCycles: reg.Counter("lazysim_core_cycles_total", "Core clock cycles simulated"),
		memCycles:  reg.Counter("lazysim_mem_cycles_total", "Memory clock cycles simulated"),
		insts:      reg.Counter("lazysim_instructions_total", "Warp instructions retired"),
		ipc:        reg.Gauge("lazysim_ipc", "Cumulative instructions per core cycle"),
		bwutil:     reg.Gauge("lazysim_bwutil", "Cumulative per-channel data-bus utilization"),
		queueOcc:   reg.Gauge("lazysim_queue_occupancy", "Mean pending-queue occupancy per channel (instantaneous)"),
		delay:      reg.Gauge("lazysim_dms_delay_cycles", "Largest in-force DMS delay across channels"),
		thRBL:      reg.Gauge("lazysim_ams_th_rbl", "Largest in-force AMS Th_RBL across channels"),
		rowEnergy:  reg.Gauge("lazysim_row_energy_nj", "Row energy spent so far under the configured profile"),
	}
	reg.Register("lazysim_run_info", "Constant 1, labeled with the run's app and scheme",
		obs.KindGauge, "app", "scheme").With(app, scheme).Set(1)

	aud := reg.Register("lazysim_audit_decisions_total",
		"Scheduler decisions recorded by the audit log, by unit and reason",
		obs.KindCounter, "unit", "reason")
	for r := obs.Reason(0); r < obs.NumReasons; r++ {
		m.auditReasons = append(m.auditReasons, aud.With(r.Unit(), r.String()))
	}
	m.qualLines = reg.Counter("lazysim_quality_lines_total", "AMS-dropped lines scored against ground truth")
	m.qualWords = reg.Counter("lazysim_quality_words_total", "Finite ground-truth words scored against predictions")
	m.qualMeanRel = reg.Gauge("lazysim_quality_mean_rel_error", "Mean per-word relative error of value-predicted lines")
	m.qualMaxRel = reg.Gauge("lazysim_quality_max_rel_error", "Largest per-word relative error of value-predicted lines")

	// Register returns the family registered first, so each family gets
	// its children in channel-major order.
	m.channel = make([][len(channelFamilies)]*obs.Metric, nch)
	m.bank = make([][][len(bankFamilies)]*obs.Metric, nch)
	for c := range nch {
		cl := strconv.Itoa(c)
		for i, f := range channelFamilies {
			m.channel[c][i] = reg.Register(f.name, f.help, f.kind, "channel").With(cl)
		}
		m.bank[c] = make([][len(bankFamilies)]*obs.Metric, nbanks)
		for b := range nbanks {
			bl := strconv.Itoa(b)
			for i, f := range bankFamilies {
				m.bank[c][b][i] = reg.Register(f.name, f.help, f.kind, "channel", "bank").With(cl, bl)
			}
		}
	}

	if census {
		stall := reg.Register("lazysim_census_stall_cycles_total",
			"Attributed request-waiting cycles by stall cause", obs.KindCounter, "cause")
		for c := obs.StallCause(0); c < obs.NumStallCauses; c++ {
			m.cenStall = append(m.cenStall, stall.With(c.String()))
		}
		state := reg.Register("lazysim_census_bank_state_cycles_total",
			"Bank-cycles spent in each residency state, summed over banks", obs.KindCounter, "state")
		for st := obs.BankState(0); st < obs.NumBankStates; st++ {
			m.cenState = append(m.cenState, state.With(st.String()))
		}
		part := reg.Register("lazysim_census_partition_cycles_total",
			"Partition memory cycles by census class", obs.KindCounter, "class")
		for _, cls := range []string{"advancing", "timing_wait", "idle"} {
			m.cenPart = append(m.cenPart, part.With(cls))
		}
		m.cenReqs = reg.Counter("lazysim_census_requests_total", "Requests folded into the cycle census")
		m.cenLat = reg.Counter("lazysim_census_latency_cycles_total", "Total attributed queue+service latency cycles")
		m.cenSkip = reg.Gauge("lazysim_census_skippable_frac", "Fraction of partition cycles an event-driven memory model could skip")
		m.cenGapP50 = reg.Gauge("lazysim_census_gap_p50", "Median next-event gap (maximal skippable run) in memory cycles")
		m.cenGapP99 = reg.Gauge("lazysim_census_gap_p99", "99th-percentile next-event gap in memory cycles")
		m.cenGaps = &obs.Histogram{}
	}
	return m
}

// publishMetrics pushes the current simulation state into the registry.
// It runs on the simulation goroutine; scrapers read the atomics
// concurrently.
func (g *GPU) publishMetrics() {
	m := g.met
	t := g.totals()
	m.coreCycles.Set(float64(g.coreCycle))
	m.memCycles.Set(float64(g.memCycle))
	m.insts.Set(float64(t.insts))
	if g.coreCycle > 0 {
		m.ipc.Set(float64(t.insts) / float64(g.coreCycle))
	}

	actNJ := g.cfg.Energy.ActNJ
	for ci, p := range g.partitions {
		for i, f := range channelFamilies {
			m.channel[ci][i].Set(f.value(p))
		}
		for bi, row := range m.bank[ci] {
			b := &p.st.Banks[bi]
			for i, f := range bankFamilies {
				row[i].Set(f.value(b, actNJ))
			}
		}
	}
	m.rowEnergy.Set(float64(t.acts) * actNJ)
	nch := uint64(len(g.partitions))
	if nch > 0 {
		m.queueOcc.Set(float64(t.occ) / float64(nch))
		if g.memCycle > 0 {
			m.bwutil.Set(float64(t.busy) / float64(g.memCycle*nch))
		}
	}
	m.delay.Set(float64(t.delay))
	m.thRBL.Set(float64(t.thRBL))

	if a := g.col.Audit; a != nil {
		for r, metric := range m.auditReasons {
			metric.Set(float64(a.Count(obs.Reason(r))))
		}
	}
	if q := g.col.Quality; q != nil {
		m.qualLines.Set(float64(q.Lines()))
		m.qualWords.Set(float64(q.Words()))
		m.qualMeanRel.Set(q.MeanRel())
		m.qualMaxRel.Set(q.MaxRel())
	}
	if m.cenStall != nil {
		m.publishCensus(g.partitions)
	}
}

// publishCensus sums the per-channel censuses into the census families in
// place. The gap percentiles read the channels' gap histograms merged into
// a scratch histogram the metrics own, so a publish allocates nothing.
func (m *gpuMetrics) publishCensus(parts []*partition) {
	var stall [obs.NumStallCauses]uint64
	var states [obs.NumBankStates]uint64
	var part, adv, wait, idle, reqs, lat uint64
	*m.cenGaps = obs.Histogram{}
	for _, p := range parts {
		c := p.cen
		for i := range c.StallHist {
			stall[i] += c.StallHist[i].Sum()
		}
		for _, row := range c.Residency {
			for st, n := range row {
				states[st] += n
			}
		}
		part += c.PartCycles
		adv += c.Advancing
		wait += c.TimingWait
		idle += c.Idle
		reqs += c.Requests
		lat += c.LatencyCycles
		m.cenGaps.Merge(&c.GapHist)
	}
	for c, metric := range m.cenStall {
		metric.Set(float64(stall[c]))
	}
	for st, metric := range m.cenState {
		metric.Set(float64(states[st]))
	}
	m.cenPart[0].Set(float64(adv))
	m.cenPart[1].Set(float64(wait))
	m.cenPart[2].Set(float64(idle))
	m.cenReqs.Set(float64(reqs))
	m.cenLat.Set(float64(lat))
	if part > 0 {
		m.cenSkip.Set(float64(wait+idle) / float64(part))
	}
	m.cenGapP50.Set(float64(m.cenGaps.Percentile(50)))
	m.cenGapP99.Set(float64(m.cenGaps.Percentile(99)))
}
