package stats

import "lazydram/internal/obs"

// DigestInto folds every counter of the Mem block into h, including the RBL
// histograms and the per-bank matrix. Counters are state too: two executions
// can only call themselves identical if they agree on what they counted.
func (m *Mem) DigestInto(h *obs.Hasher) {
	h.U64("activations", m.Activations)
	h.U64("reads", m.Reads)
	h.U64("writes", m.Writes)
	h.U64("readReqs", m.ReadReqs)
	h.U64("writeReqs", m.WriteReqs)
	h.U64("dropped", m.Dropped)
	h.U64("dataBusBusy", m.DataBusBusy)
	h.U64("cycles", m.Cycles)
	h.Int("numChannels", m.NumChannels)
	for i := range m.RBL {
		h.Enter("rbl", i)
		h.U64("acts", m.RBL[i])
		h.U64("reads", m.ReadsPerRBL[i])
		h.Leave()
	}
	h.U64("readOnlyActs", m.ReadOnlyActs)
	h.U64("queueOccSum", m.QueueOccSum)
	h.U64("delaySum", m.DelaySum)
	h.U64("thRBLSum", m.ThRBLSum)
	h.U64("faultActFlips", m.FaultActFlips)
	h.U64("faultRetFlips", m.FaultRetFlips)
	h.U64("faultBusFlips", m.FaultBusFlips)
	h.U64("faultReads", m.FaultReads)
	h.Int("banks.len", len(m.Banks))
	for i := range m.Banks {
		b := &m.Banks[i]
		h.Enter("bank", i)
		h.U64("activations", b.Activations)
		h.U64("reads", b.Reads)
		h.U64("writes", b.Writes)
		h.U64("precharges", b.Precharges)
		h.U64("rowHits", b.RowHits)
		h.U64("rowMisses", b.RowMisses)
		h.U64("rowConflicts", b.RowConflicts)
		h.U64("busBusy", b.BusBusy)
		h.U64("dmsDelayCycles", b.DMSDelayCycles)
		h.U64("amsDrops", b.AMSDrops)
		h.U64("faultFlips", b.FaultFlips)
		h.Leave()
	}
}
