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
// folded bank → channel → partition → machine. One node table drives the
// sampled record, the labeled component digests and the dump of any node, so
// the hash and the dump come from the same fold list. Everything here runs on
// the simulation goroutine between cycles, so it reads machine state without
// locking.

// digestNode is one node of the digest hierarchy.
type digestNode struct {
	path string              // as ComponentDigests labels it: "partition[2].dram.bank[5]"
	seg  string              // the path's last segment, the node's label inside its parent
	fold func(h *obs.Hasher) // the node's own fields, folded before its kids
	kids []*digestNode
	// inline nodes fold on into their parent's digest; any other node is
	// folded into its parent as one value, its digest.
	inline bool
	h      obs.Hasher // after a walk that reached the node on its own, Sum is its digest
}

// walk folds n's own fields and then its kids into h. A non-inline kid is
// walked into a hasher of its own, whose digest h then folds under the kid's
// name; an inline kid folds straight on into h — through a Tee when all is
// set, so that it gets a digest of its own too.
func (n *digestNode) walk(h *obs.Hasher, all bool) {
	if n.fold != nil {
		n.fold(h)
	}
	for _, k := range n.kids {
		h.Enter(k.seg)
		switch {
		case !k.inline:
			k.h = *obs.NewHasher()
			k.walk(&k.h, all)
		case all:
			k.h = h.Tee()
			k.walk(&k.h, all)
		default:
			k.walk(h, all)
		}
		h.Leave()
		if !k.inline {
			h.U64(k.seg, k.h.Sum())
		}
	}
}

// digestNodes returns the node table, rebuilding it when the resident SM set
// changed shape (GPU.sms is empty between phases).
func (g *GPU) digestNodes() []*digestNode {
	if g.dnodes != nil && g.dnodesSMs == len(g.sms) {
		return g.dnodes
	}
	g.dnodes, g.dnodesSMs = nil, len(g.sms)
	node := func(path string, fold func(*obs.Hasher), kids ...*digestNode) *digestNode {
		n := &digestNode{path: path, seg: path[strings.LastIndexByte(path, '.')+1:], fold: fold, kids: kids}
		g.dnodes = append(g.dnodes, n)
		return n
	}
	inline := func(path string, fold func(*obs.Hasher)) *digestNode {
		n := node(path, fold)
		n.inline = true
		return n
	}
	var sms []*digestNode
	for i, s := range g.sms {
		sms = append(sms, inline(fmt.Sprintf("cores.sm[%d]", i), s.DigestInto))
	}
	top := []*digestNode{
		node("cores", g.digestClocks, sms...),
		node("icnt", nil,
			inline("icnt.req", func(h *obs.Hasher) { g.reqNet.DigestInto(h, digestReq) }),
			inline("icnt.reply", func(h *obs.Hasher) { g.replyNet.DigestInto(h, digestReply) })),
	}
	for _, p := range g.partitions {
		base := fmt.Sprintf("partition[%d]", p.id)
		var banks []*digestNode
		for b := 0; b < p.dchan.NumBanks(); b++ {
			banks = append(banks, inline(fmt.Sprintf("%s.dram.bank[%d]", base, b),
				func(h *obs.Hasher) { p.dchan.DigestBank(b, h) }))
		}
		// The kids in obs.PartDigest field order. Traffic is a rolling digest
		// already, so the partition folds it as it is.
		top = append(top, node(base, func(h *obs.Hasher) { h.Int("part", p.id) },
			node(base+".dram", p.dchan.DigestInto, banks...),
			node(base+".mc", p.ctrl.DigestInto),
			node(base+".l2", func(h *obs.Hasher) {
				p.l2.DigestInto(h)
				h.Enter("mshr")
				p.mshr.DigestInto(h)
				h.Leave()
			}),
			node(base+".heaps", p.digestHeaps),
			inline(base+".traffic", func(h *obs.Hasher) { h.U64("digest", p.traffic) }),
			node(base+".stats", p.st.DigestInto)))
	}
	node("machine", nil, top...)
	return g.dnodes
}

// walkDigests walks the whole table from the machine root (see walk for
// all) and returns the root.
func (g *GPU) walkDigests(all bool) *digestNode {
	nodes := g.digestNodes()
	root := nodes[len(nodes)-1]
	root.h = *obs.NewHasher()
	root.walk(&root.h, all)
	return root
}

// digestReq folds a request-network payload: a transaction on its way to a
// partition. A store's words are hashed as a per-word list (see
// cache.HashStoreWords).
func digestReq(payload any, h *obs.Hasher) {
	m := payload.(*core.MemReq)
	h.U64("line", m.LineAddr)
	h.Bool("load", m.Load)
	h.U64("issuedAt", m.IssuedAt)
	h.Int("sm", m.SM)
	h.Int("words", bits.OnesCount32(m.Mask))
	cache.HashStoreWords(h, m.LineAddr, m.Mask, &m.Data)
}

// digestReply folds a reply-network payload: a load transaction carrying its
// line back to the SM. The data is hashed in full: a corrupted line in flight
// between partitions and SMs is exactly the state a fault divergence lives in.
func digestReply(payload any, h *obs.Hasher) {
	m := payload.(*core.MemReq)
	h.U64("line", m.LineAddr)
	h.Bool("approx", m.Approx)
	h.U64("sentAt", m.SentAt)
	h.Bytes("data", m.Data[:])
}

// digestHeaps folds the partition-local progress state: the write-back queue,
// the done and hit heaps (heap array order — deterministic, since both runs
// perform identical push/pop sequences), pending replies, and the VP unit's
// counters.
func (p *partition) digestHeaps(h *obs.Hasher) {
	wbs := p.pendingWBs()
	h.Int("wb.len", len(wbs))
	for i := range wbs {
		e := &wbs[i]
		h.Enter("wb", i)
		h.U64("addr", e.addr)
		h.Bytes("data", e.data[:])
		h.Leave()
	}
	h.Int("done.len", len(p.done))
	for i := range p.done {
		it := &p.done[i]
		h.Enter("done", i)
		h.U64("readyAt", it.readyAt)
		h.U64("id", it.v.req.ID)
		h.U64("addr", it.v.req.Addr)
		h.Bool("approx", it.v.approx)
		h.Int("faults", it.v.req.Faults.Count())
		h.Leave()
	}
	h.Int("hits.len", len(p.hits))
	for i := range p.hits {
		it := &p.hits[i]
		h.Enter("hits", i)
		h.U64("readyAt", it.readyAt)
		h.U64("line", it.v.LineAddr)
		h.Bytes("data", it.v.Data[:])
		h.Leave()
	}
	h.Int("replies.len", len(p.outReplies))
	for i, r := range p.outReplies {
		h.Enter("replies", i)
		h.U64("line", r.LineAddr)
		h.Bool("approx", r.Approx)
		h.Bytes("data", r.Data[:])
		h.Leave()
	}
	pred, fb := p.vp.Counts()
	h.U64("vp.predictions", pred)
	h.U64("vp.fallbacks", fb)
}

// digestClocks folds the GPU's own execution progress: clocks, retirement
// counters, the current phase and the resident SM count. The SMs follow as
// inline kids of the cores node.
func (g *GPU) digestClocks(h *obs.Hasher) {
	h.U64("coreCycle", g.coreCycle)
	h.U64("memCycle", g.memCycle)
	h.U64("insts", g.insts)
	h.U64("l1Accesses", g.l1Accesses)
	h.U64("l1Misses", g.l1Misses)
	h.Int("phase", g.phase)
	h.Int("sms", len(g.sms))
}

// digestRecord samples the full digest hierarchy at the current mem cycle.
func (g *GPU) digestRecord() obs.DigestRecord {
	root := g.walkDigests(false)
	kids := root.kids
	rec := obs.DigestRecord{
		Cycle:   g.memCycle,
		Machine: root.h.Sum(),
		Cores:   kids[0].h.Sum(),
		Icnt:    kids[1].h.Sum(),
		Parts:   make([]obs.PartDigest, len(g.partitions)),
	}
	for i, p := range g.partitions {
		k := kids[2+i].kids
		rec.Parts[i] = obs.PartDigest{Part: p.id, DRAM: k[0].h.Sum(), MC: k[1].h.Sum(),
			L2: k[2].h.Sum(), Heaps: k[3].h.Sum(), Traffic: p.traffic, Stats: k[5].h.Sum()}
	}
	return rec
}

// MachineDigest computes the machine-level digest of the GPU's current
// architectural state — the same fold the flight recorder samples. Callable
// between Steps.
func (g *GPU) MachineDigest() uint64 { return g.walkDigests(false).h.Sum() }

// ComponentDigests returns every node of the digest hierarchy with its path
// label, deepest leaves first within each subtree and "machine" last, so a
// divergence between two GPUs can be attributed to the deepest (most
// specific) disagreeing component. One walk digests every node.
func (g *GPU) ComponentDigests() []obs.ComponentDigest {
	g.walkDigests(true)
	nodes := g.digestNodes()
	out := make([]obs.ComponentDigest, len(nodes))
	for i, n := range nodes {
		out[i] = obs.ComponentDigest{Path: n.path, Digest: n.h.Sum()}
	}
	return out
}

// StateDump walks the node at path (as labeled by ComponentDigests) with a
// dumping hasher: one "name=value" line per field it folds, and the digest
// those folds reach. An unknown path returns "" and 0.
func (g *GPU) StateDump(path string) (string, uint64) {
	for _, n := range g.digestNodes() {
		if n.path == path {
			h := obs.NewDumpHasher()
			n.walk(h, false)
			return h.Dump(), h.Sum()
		}
	}
	return "", 0
}
