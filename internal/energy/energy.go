// Package energy provides the DRAM energy model used to turn activation and
// access counts into the paper's "row energy" and memory-system energy
// numbers.
//
// The paper measures energy with GPUWattch; we substitute an analytic
// per-operation model with representative constants from the literature the
// paper cites (Chatterjee et al. HPCA'17, O'Connor et al. MICRO'17, Ghose et
// al. SIGMETRICS'18). All results the harness reports are normalized to a
// baseline run, exactly as the paper reports them, so the relative numbers —
// the reproduction target — do not depend on the absolute constants.
package energy

import (
	"sort"

	"lazydram/internal/stats"
)

// Profile holds per-operation energies in nanojoules plus background power.
type Profile struct {
	Name string
	// ActPJ is the energy of one activate+restore+precharge cycle for a full
	// row — the paper's "row energy" unit.
	ActNJ float64
	// RdNJ / WrNJ are per-column-access (32 B x burst = 128 B) energies,
	// including I/O.
	RdNJ float64
	WrNJ float64
	// BackgroundWPerChannel is static + refresh power per channel in watts.
	BackgroundWPerChannel float64
	// RowEnergyShare is the typical share of row energy in total memory
	// system energy at peak bandwidth for this technology, used for the
	// paper's HBM1 (~50%) and HBM2 (~25%) projections.
	RowEnergyShare float64
}

// GDDR5 is the default profile for the simulated Hynix GDDR5 part.
func GDDR5() Profile {
	return Profile{
		Name:  "GDDR5",
		ActNJ: 22.5, RdNJ: 5.2, WrNJ: 5.4,
		BackgroundWPerChannel: 0.65,
		RowEnergyShare:        0.37,
	}
}

// HBM1 models a first-generation HBM stack, where row energy is close to
// half of memory-system energy (Chatterjee et al., HPCA'17).
func HBM1() Profile {
	return Profile{
		Name:  "HBM1",
		ActNJ: 9.5, RdNJ: 1.9, WrNJ: 2.0,
		BackgroundWPerChannel: 0.30,
		RowEnergyShare:        0.50,
	}
}

// HBM2 models second-generation HBM, where row energy is roughly a quarter
// of memory-system energy (O'Connor et al., MICRO'17).
func HBM2() Profile {
	return Profile{
		Name:  "HBM2",
		ActNJ: 6.0, RdNJ: 2.4, WrNJ: 2.5,
		BackgroundWPerChannel: 0.28,
		RowEnergyShare:        0.25,
	}
}

// RowEnergyNJ returns the total row energy (activate + restore + precharge)
// for the given memory statistics.
func (p Profile) RowEnergyNJ(m *stats.Mem) float64 {
	return float64(m.Activations) * p.ActNJ
}

// AccessEnergyNJ returns the column-access energy.
func (p Profile) AccessEnergyNJ(m *stats.Mem) float64 {
	return float64(m.Reads)*p.RdNJ + float64(m.Writes)*p.WrNJ
}

// MemEnergyNJ returns total memory-system energy: row + access + background.
// memCycles is the number of memory-clock cycles the run lasted and
// memClockHz the memory clock frequency; channels is the channel count.
func (p Profile) MemEnergyNJ(m *stats.Mem, memCycles uint64, memClockHz float64, channels int) float64 {
	seconds := float64(memCycles) / memClockHz
	background := p.BackgroundWPerChannel * float64(channels) * seconds * 1e9
	return p.RowEnergyNJ(m) + p.AccessEnergyNJ(m) + background
}

// BankEnergy attributes one bank's share of the channel energy, alongside
// the counters the attribution derives from.
type BankEnergy struct {
	Bank     int     `json:"bank" gate:"key"`
	RowNJ    float64 `json:"row_nj"`
	AccessNJ float64 `json:"access_nj"`

	Activations    uint64 `json:"activations"`
	Reads          uint64 `json:"reads"`
	Writes         uint64 `json:"writes"`
	RowHits        uint64 `json:"row_hits"`
	RowMisses      uint64 `json:"row_misses"`
	RowConflicts   uint64 `json:"row_conflicts"`
	DMSDelayCycles uint64 `json:"dms_delay_cycles"`
	AMSDrops       uint64 `json:"ams_drops"`
}

// ChannelEnergy attributes one channel's energy, split per bank. Background
// energy is a channel-level quantity and has no per-bank split.
type ChannelEnergy struct {
	Channel      int          `json:"channel" gate:"key"`
	RowNJ        float64      `json:"row_nj"`
	AccessNJ     float64      `json:"access_nj"`
	BackgroundNJ float64      `json:"background_nj"`
	TotalNJ      float64      `json:"total_nj"`
	Banks        []BankEnergy `json:"banks,omitempty"`
}

// ChannelAttribution computes the energy attribution of one channel from its
// per-channel statistics. memCycles and memClockHz are the run length and
// memory clock, as in MemEnergyNJ; the channel's bank matrix (when tracked)
// yields the per-bank split.
func (p Profile) ChannelAttribution(channel int, m *stats.Mem, memCycles uint64, memClockHz float64) ChannelEnergy {
	ce := ChannelEnergy{
		Channel:      channel,
		RowNJ:        p.RowEnergyNJ(m),
		AccessNJ:     p.AccessEnergyNJ(m),
		BackgroundNJ: p.BackgroundWPerChannel * float64(memCycles) / memClockHz * 1e9,
	}
	ce.TotalNJ = ce.RowNJ + ce.AccessNJ + ce.BackgroundNJ
	for i := range m.Banks {
		b := &m.Banks[i]
		ce.Banks = append(ce.Banks, BankEnergy{
			Bank:           i,
			RowNJ:          float64(b.Activations) * p.ActNJ,
			AccessNJ:       float64(b.Reads)*p.RdNJ + float64(b.Writes)*p.WrNJ,
			Activations:    b.Activations,
			Reads:          b.Reads,
			Writes:         b.Writes,
			RowHits:        b.RowHits,
			RowMisses:      b.RowMisses,
			RowConflicts:   b.RowConflicts,
			DMSDelayCycles: b.DMSDelayCycles,
			AMSDrops:       b.AMSDrops,
		})
	}
	return ce
}

// Attribution computes the per-channel × per-bank energy attribution for a
// whole memory system from its per-channel statistics snapshots. The summed
// totals equal MemEnergyNJ of the merged statistics.
func (p Profile) Attribution(chans []stats.Mem, memCycles uint64, memClockHz float64) []ChannelEnergy {
	out := make([]ChannelEnergy, 0, len(chans))
	for i := range chans {
		out = append(out, p.ChannelAttribution(i, &chans[i], memCycles, memClockHz))
	}
	return out
}

// HotBank is one entry of the "hottest banks" summary: where the row energy
// concentrates.
type HotBank struct {
	Channel int     `json:"channel"`
	Bank    int     `json:"bank"`
	RowNJ   float64 `json:"row_nj"`
	// RowShare is this bank's fraction of the whole system's row energy.
	RowShare     float64 `json:"row_share"`
	Activations  uint64  `json:"activations"`
	RowConflicts uint64  `json:"row_conflicts"`
}

// TopBanks returns the n banks with the highest row energy across the
// attribution, sorted hottest first (ties broken by channel then bank for
// determinism). Banks that never activated are omitted.
func TopBanks(attr []ChannelEnergy, n int) []HotBank {
	var total float64
	var all []HotBank
	for _, ce := range attr {
		for _, b := range ce.Banks {
			total += b.RowNJ
			if b.Activations == 0 {
				continue
			}
			all = append(all, HotBank{
				Channel:      ce.Channel,
				Bank:         b.Bank,
				RowNJ:        b.RowNJ,
				Activations:  b.Activations,
				RowConflicts: b.RowConflicts,
			})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.RowNJ != b.RowNJ {
			return a.RowNJ > b.RowNJ
		}
		if a.Channel != b.Channel {
			return a.Channel < b.Channel
		}
		return a.Bank < b.Bank
	})
	if n > 0 && len(all) > n {
		all = all[:n]
	}
	if total > 0 {
		for i := range all {
			all[i].RowShare = all[i].RowNJ / total
		}
	}
	return all
}

// SystemSaving projects the memory-system energy saving for this technology
// given a row-energy reduction ratio (e.g. 0.44 for a 44% reduction), using
// the technology's typical row-energy share:
//
//	saving = rowReduction * RowEnergyShare
//
// This is the calculation behind the paper's "22% on HBM1, 11% on HBM2"
// statement.
func (p Profile) SystemSaving(rowReduction float64) float64 {
	return rowReduction * p.RowEnergyShare
}

// PeakBandwidthHeadroom converts a memory power saving into extra peak
// bandwidth under a fixed power budget, assuming bandwidth scales linearly
// with dynamic power at peak utilization (the paper's 60 W / 300 W GPU budget
// discussion). budgetW is the memory power cap, peakGBs the baseline peak
// bandwidth, saving the fractional memory-energy saving.
func PeakBandwidthHeadroom(budgetW, peakGBs, saving float64) (wattsSaved, extraGBs float64) {
	wattsSaved = budgetW * saving
	// With saving s, each GB/s costs (1-s) of its former power, so the same
	// budget sustains peak/(1-s) bandwidth.
	if saving < 1 {
		extraGBs = peakGBs/(1-saving) - peakGBs
	}
	return wattsSaved, extraGBs
}
