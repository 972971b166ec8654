package sim

import (
	"fmt"
	"math/bits"
	"strings"

	"lazydram/internal/cache"
	"lazydram/internal/core"
	"lazydram/internal/obs"
)

// This file assembles the machine digest hierarchy the flight recorder
// samples: per-partition component digests (DRAM banks, MC queues, L2 slice,
// progress heaps, rolling traffic, stats), a cores digest over every resident
// SM, and an interconnect digest over both crossbars' in-flight packets —
// folded bank → channel → partition → machine. Everything here runs on the
// simulation goroutine outside the SM phase, so it reads machine state
// without locking.

// digestReq folds a request-network payload: a transaction on its way to a
// partition. A store's words are hashed as a per-word list (see
// cache.HashStoreWords).
func digestReq(payload any, h *obs.Hasher) {
	m := payload.(*core.MemReq)
	h.U64(m.LineAddr)
	h.Bool(m.Load)
	h.U64(m.IssuedAt)
	h.Int(m.SM)
	h.Int(bits.OnesCount32(m.Mask))
	cache.HashStoreWords(h, m.LineAddr, m.Mask, &m.Data)
}

// digestReply folds a reply-network payload: a load transaction carrying its
// line back to the SM. The data is hashed in full: a corrupted line in flight
// between partitions and SMs is exactly the state a fault divergence lives in.
func digestReply(payload any, h *obs.Hasher) {
	m := payload.(*core.MemReq)
	h.U64(m.LineAddr)
	h.Bool(m.Approx)
	h.U64(m.SentAt)
	h.Bytes(m.Data[:])
}

// digest computes the partition's component digests at the current instant.
func (p *partition) digest() obs.PartDigest {
	pd := obs.PartDigest{Part: p.id, Traffic: p.traffic}
	h := obs.NewHasher()
	p.dchan.DigestInto(h)
	for b := 0; b < p.dchan.NumBanks(); b++ {
		p.dchan.DigestBank(b, h)
	}
	pd.DRAM = h.Sum()
	h.Reset()
	p.ctrl.DigestInto(h)
	pd.MC = h.Sum()
	h.Reset()
	p.l2.DigestInto(h)
	p.mshr.DigestInto(h)
	pd.L2 = h.Sum()
	h.Reset()
	p.digestHeaps(h)
	pd.Heaps = h.Sum()
	h.Reset()
	p.st.DigestInto(h)
	pd.Stats = h.Sum()
	return pd
}

// digestHeaps folds the partition-local progress state: the write-back queue,
// the done and hit heaps (heap array order — deterministic, since both runs
// perform identical push/pop sequences), pending replies, and the VP unit's
// counters.
func (p *partition) digestHeaps(h *obs.Hasher) {
	wbs := p.pendingWBs()
	h.Int(len(wbs))
	for i := range wbs {
		e := &wbs[i]
		h.U64(e.addr)
		h.Bytes(e.data[:])
	}
	h.Int(len(p.done))
	for i := range p.done {
		it := &p.done[i]
		h.U64(it.readyAt)
		h.U64(it.v.req.ID)
		h.U64(it.v.req.Addr)
		h.Bool(it.v.approx)
		if it.v.req.Faults != nil {
			h.Int(it.v.req.Faults.Count())
		} else {
			h.Int(0)
		}
	}
	h.Int(len(p.hits))
	for i := range p.hits {
		it := &p.hits[i]
		h.U64(it.readyAt)
		h.U64(it.v.LineAddr)
		h.Bytes(it.v.Data[:])
	}
	h.Int(len(p.outReplies))
	for _, r := range p.outReplies {
		h.U64(r.LineAddr)
		h.Bool(r.Approx)
		h.Bytes(r.Data[:])
	}
	pred, fb := p.vp.Counts()
	h.U64(pred)
	h.U64(fb)
}

// dumpHeaps renders the heads of the partition's progress queues for
// lazydiverge's focused state diffs.
func (p *partition) dumpHeaps() string {
	var sb strings.Builder
	wbs := p.pendingWBs()
	fmt.Fprintf(&sb, "wbQueue=%d done=%d hits=%d outReplies=%d\n",
		len(wbs), len(p.done), len(p.hits), len(p.outReplies))
	if len(wbs) > 0 {
		fmt.Fprintf(&sb, "wb[0]: addr=%#x\n", wbs[0].addr)
	}
	if len(p.done) > 0 {
		it := &p.done[0]
		faults := 0
		if it.v.req.Faults != nil {
			faults = it.v.req.Faults.Count()
		}
		fmt.Fprintf(&sb, "done[0]: readyAt=%d req=#%d@%#x approx=%v faultBits=%d\n",
			it.readyAt, it.v.req.ID, it.v.req.Addr, it.v.approx, faults)
	}
	if len(p.hits) > 0 {
		it := &p.hits[0]
		fmt.Fprintf(&sb, "hits[0]: readyAt=%d line=%#x\n", it.readyAt, it.v.LineAddr)
	}
	if len(p.outReplies) > 0 {
		r := p.outReplies[0]
		fmt.Fprintf(&sb, "reply[0]: line=%#x approx=%v\n", r.LineAddr, r.Approx)
	}
	return sb.String()
}

// digestCores folds the GPU's execution progress: clocks, retirement
// counters, the current phase, and every resident SM.
func (g *GPU) digestCores(h *obs.Hasher) {
	h.U64(g.coreCycle)
	h.U64(g.memCycle)
	h.U64(g.insts)
	h.U64(g.l1Accesses)
	h.U64(g.l1Misses)
	h.Int(g.phase)
	h.Int(len(g.sms))
	for _, s := range g.sms {
		s.DigestInto(h)
	}
}

// digestRecord samples the full digest hierarchy at the current mem cycle.
func (g *GPU) digestRecord() obs.DigestRecord {
	rec := obs.DigestRecord{Cycle: g.memCycle}
	h := obs.NewHasher()
	g.digestCores(h)
	rec.Cores = h.Sum()
	h.Reset()
	g.reqNet.DigestInto(h, digestReq)
	g.replyNet.DigestInto(h, digestReply)
	rec.Icnt = h.Sum()
	mh := obs.NewHasher()
	mh.U64(rec.Cores)
	mh.U64(rec.Icnt)
	rec.Parts = make([]obs.PartDigest, 0, len(g.partitions))
	for _, p := range g.partitions {
		pd := p.digest()
		rec.Parts = append(rec.Parts, pd)
		mh.U64(pd.Sum())
	}
	rec.Machine = mh.Sum()
	return rec
}

// MachineDigest computes the machine-level digest of the GPU's current
// architectural state — the same fold the flight recorder samples. Callable
// between Steps.
func (g *GPU) MachineDigest() uint64 { return g.digestRecord().Machine }

// ComponentDigests returns every node of the digest hierarchy with its path
// label, deepest leaves first within each subtree and "machine" last, so a
// divergence between two GPUs can be attributed to the deepest (most
// specific) disagreeing component.
func (g *GPU) ComponentDigests() []obs.ComponentDigest {
	rec := g.digestRecord()
	var out []obs.ComponentDigest
	h := obs.NewHasher()
	for i, s := range g.sms {
		h.Reset()
		s.DigestInto(h)
		out = append(out, obs.ComponentDigest{Path: fmt.Sprintf("cores.sm[%d]", i), Digest: h.Sum()})
	}
	out = append(out, obs.ComponentDigest{Path: "cores", Digest: rec.Cores})
	h.Reset()
	g.reqNet.DigestInto(h, digestReq)
	out = append(out, obs.ComponentDigest{Path: "icnt.req", Digest: h.Sum()})
	h.Reset()
	g.replyNet.DigestInto(h, digestReply)
	out = append(out, obs.ComponentDigest{Path: "icnt.reply", Digest: h.Sum()})
	out = append(out, obs.ComponentDigest{Path: "icnt", Digest: rec.Icnt})
	for i, p := range g.partitions {
		pd := &rec.Parts[i]
		base := fmt.Sprintf("partition[%d]", p.id)
		for b := 0; b < p.dchan.NumBanks(); b++ {
			h.Reset()
			p.dchan.DigestBank(b, h)
			out = append(out, obs.ComponentDigest{
				Path: fmt.Sprintf("%s.dram.bank[%d]", base, b), Digest: h.Sum()})
		}
		out = append(out,
			obs.ComponentDigest{Path: base + ".dram", Digest: pd.DRAM},
			obs.ComponentDigest{Path: base + ".mc", Digest: pd.MC},
			obs.ComponentDigest{Path: base + ".l2", Digest: pd.L2},
			obs.ComponentDigest{Path: base + ".heaps", Digest: pd.Heaps},
			obs.ComponentDigest{Path: base + ".traffic", Digest: pd.Traffic},
			obs.ComponentDigest{Path: base + ".stats", Digest: pd.Stats},
			obs.ComponentDigest{Path: base, Digest: pd.Sum()},
		)
	}
	out = append(out, obs.ComponentDigest{Path: "machine", Digest: rec.Machine})
	return out
}

// StateDump renders a focused, human-readable dump of the component named by
// path (as labeled by ComponentDigests); unknown paths return "".
func (g *GPU) StateDump(path string) string {
	switch {
	case path == "machine":
		return fmt.Sprintf("coreCycle=%d memCycle=%d phase=%d insts=%d sms=%d partitions=%d\n",
			g.coreCycle, g.memCycle, g.phase, g.insts, len(g.sms), len(g.partitions))
	case path == "cores":
		return fmt.Sprintf("coreCycle=%d memCycle=%d phase=%d insts=%d l1Acc=%d l1Miss=%d sms=%d\n",
			g.coreCycle, g.memCycle, g.phase, g.insts, g.l1Accesses, g.l1Misses, len(g.sms))
	case path == "icnt" || path == "icnt.req":
		s := "req: " + g.reqNet.DumpState()
		if path == "icnt" {
			s += "reply: " + g.replyNet.DumpState()
		}
		return s
	case path == "icnt.reply":
		return "reply: " + g.replyNet.DumpState()
	}
	var i int
	if n, _ := fmt.Sscanf(path, "cores.sm[%d]", &i); n == 1 {
		if i >= 0 && i < len(g.sms) {
			return g.sms[i].DumpState()
		}
		return ""
	}
	if n, _ := fmt.Sscanf(path, "partition[%d]", &i); n != 1 || i < 0 || i >= len(g.partitions) {
		return ""
	}
	p := g.partitions[i]
	rest := strings.TrimPrefix(path, fmt.Sprintf("partition[%d]", i))
	switch {
	case rest == "":
		return p.dchan.DumpState() + p.ctrl.DumpState() + p.l2.DumpState() + p.dumpHeaps()
	case rest == ".dram":
		return p.dchan.DumpState()
	case rest == ".mc":
		return p.ctrl.DumpState()
	case rest == ".l2":
		return p.l2.DumpState() + fmt.Sprintf("mshr=%d\n", p.mshr.Len())
	case rest == ".heaps":
		return p.dumpHeaps()
	case rest == ".traffic":
		return fmt.Sprintf("traffic=%#016x\n", p.traffic)
	case rest == ".stats":
		return fmt.Sprintf("acts=%d reads=%d writes=%d dropped=%d busBusy=%d refreshes=%d faultFlips=%d\n",
			p.st.Activations, p.st.Reads, p.st.Writes, p.st.Dropped,
			p.st.DataBusBusy, p.st.Refreshes,
			p.st.FaultActFlips+p.st.FaultRetFlips+p.st.FaultBusFlips)
	}
	var b int
	if n, _ := fmt.Sscanf(rest, ".dram.bank[%d]", &b); n == 1 && b >= 0 && b < p.dchan.NumBanks() {
		return p.dchan.DumpBank(b)
	}
	return ""
}
