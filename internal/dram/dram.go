// Package dram models a GDDR5-style DRAM channel at command granularity:
// per-bank row buffers, ACT/PRE/RD/WR commands with the Hynix GDDR5 timing
// parameters of the paper's Table I, an open-row policy, and data-bus
// occupancy tracking for bandwidth-utilization (BWUTIL) measurement.
//
// The memory controller (package mc) decides which command to issue; this
// package answers "from which cycle is that command legal" (ReadyAt) and
// applies its timing and statistics side effects.
package dram

import (
	"lazydram/internal/obs"
	"lazydram/internal/stats"
)

// Timing holds DRAM timing parameters in memory-clock cycles. The named
// fields follow the paper's Table I (Hynix GDDR5); WL, WR and RTP are not
// listed in the table and use standard GDDR5 values.
type Timing struct {
	CL   uint64 // read column-access latency
	RP   uint64 // precharge period
	RC   uint64 // activate-to-activate, same bank
	RAS  uint64 // activate-to-precharge minimum
	CCD  uint64 // column-to-column delay (= burst occupancy of the bus)
	RCD  uint64 // activate-to-column delay
	RRD  uint64 // activate-to-activate, different banks
	CDLR uint64 // write-to-read turnaround (column delay, last write to read)
	WL   uint64 // write column-access latency
	WR   uint64 // write recovery before precharge
	RTP  uint64 // read-to-precharge delay
	// CCDL is the column-to-column delay within one bank group; GDDR5 bank
	// groups allow back-to-back bursts (CCD) only across groups. Zero means
	// no bank-group penalty.
	CCDL uint64
}

// HynixGDDR5 is the timing configuration from Table I of the paper.
func HynixGDDR5() Timing {
	// Table I specifies a single tCCD; the same-bank-group tCCDL penalty is
	// available (Timing.CCDL) but defaults off so the baseline matches the
	// paper's model. Refresh is not modelled: the paper's model has none.
	return Timing{
		CL: 12, RP: 12, RC: 40, RAS: 28, CCD: 2,
		RCD: 12, RRD: 6, CDLR: 5, WL: 4, WR: 12, RTP: 2,
	}
}

// Config describes one DRAM channel.
type Config struct {
	NumBanks      int
	NumBankGroups int
	RowBytes      uint64
	Timing        Timing
}

// DefaultConfig mirrors Table I: 16 banks, 4 bank groups, 2 KB rows.
func DefaultConfig() Config {
	return Config{NumBanks: 16, NumBankGroups: 4, RowBytes: 2048, Timing: HynixGDDR5()}
}

// NoRow marks a closed row buffer.
const NoRow int64 = -1

// Bank is the timing state of one DRAM bank.
type Bank struct {
	OpenRow int64
	group   int // bank group, fixed at NewChannel

	nextAct   uint64 // earliest cycle an ACT may issue
	nextRead  uint64
	nextWrite uint64
	nextPre   uint64

	// openedAt is the cycle of the current activation's ACT, giving the
	// fault model the open-row age for retention-error classification.
	openedAt uint64

	// Accounting for the current activation, consumed when the row closes.
	served      int
	servedReads int
	readOnly    bool

	// demandClosed remembers that the bank's last close was a demand
	// precharge (the scheduler evicted a row to open another); conflictAct
	// carries that into the current activation so its first column access is
	// classified as a row conflict rather than a row miss.
	demandClosed bool
	conflictAct  bool
}

// Channel is one DRAM channel: a set of banks plus channel-level constraints
// (ACT-to-ACT spacing, shared data/command bus).
type Channel struct {
	cfg   Config
	banks []Bank

	nextActAny   uint64 // tRRD across banks
	nextColRead  uint64 // channel-level column spacing / turnaround
	nextColWrite uint64
	// nextColGroup is, per bank group, the earliest cycle a column command
	// to that group may issue under tCCDL.
	nextColGroup []uint64

	stats *stats.Mem

	// trace, when non-nil, records every issued command; chanID labels the
	// channel in the trace.
	trace  *obs.CmdTrace
	chanID int
}

// NewChannel creates a channel with all banks closed.
func NewChannel(cfg Config, st *stats.Mem) *Channel {
	groups := max(cfg.NumBankGroups, 1)
	ch := &Channel{cfg: cfg, banks: make([]Bank, cfg.NumBanks), nextColGroup: make([]uint64, groups), stats: st}
	st.EnsureBanks(cfg.NumBanks)
	for i := range ch.banks {
		ch.banks[i].OpenRow = NoRow
		ch.banks[i].group = i % groups
		ch.banks[i].readOnly = true
	}
	return ch
}

// SetTrace attaches a command trace ring; every subsequent ACT/PRE/RD/WR is
// recorded under the given channel id. A nil trace disables recording.
func (c *Channel) SetTrace(t *obs.CmdTrace, channel int) {
	c.trace = t
	c.chanID = channel
}

// Config returns the channel configuration.
func (c *Channel) Config() Config { return c.cfg }

// NumBanks returns the number of banks in the channel.
func (c *Channel) NumBanks() int { return len(c.banks) }

// OpenRow returns the currently open row of bank b, or NoRow.
func (c *Channel) OpenRow(b int) int64 { return c.banks[b].OpenRow }

// ActServed returns how many column accesses the current activation of bank
// b has served so far (0 right after ACT: the next access is the
// activation's first, the one exposed to reduced-tRCD sensing errors).
func (c *Channel) ActServed(b int) int { return c.banks[b].served }

// OpenAge returns how long bank b's row has been open at cycle now, in
// memory cycles (0 when the bank is closed).
func (c *Channel) OpenAge(b int, now uint64) uint64 {
	bk := &c.banks[b]
	if bk.OpenRow == NoRow || now < bk.openedAt {
		return 0
	}
	return now - bk.openedAt
}

// ReadyAt returns the earliest cycle cmd (ACT, PRE, RD, or WR for any
// other kind) may issue to bank b under the timing state now in force,
// split by scope. bank is the bank's own constraint: tRCD for a column
// command, tRAS/tRTP/tWR for PRE, tRP/tRC for ACT. channel is the shared
// one: the column bus (tCCD spacing, read/write turnaround, tCCDL behind the
// bank group's last column command) for RD/WR, tRRD for ACT, and 0 for PRE.
// Neither checks the row state: RD/WR and PRE need an open row, ACT a closed
// one. Every stamp only ever moves later, and only through a command, so a
// cycle read here stays a valid lower bound until the next command.
func (c *Channel) ReadyAt(b int, cmd obs.CmdKind) (bank, channel uint64) {
	bk := &c.banks[b]
	switch cmd {
	case obs.CmdACT:
		return bk.nextAct, c.nextActAny
	case obs.CmdPRE:
		return bk.nextPre, 0
	case obs.CmdRD:
		bank, channel = bk.nextRead, c.nextColRead
	default:
		bank, channel = bk.nextWrite, c.nextColWrite
	}
	return bank, max(channel, c.nextColGroup[bk.group])
}

// Activate opens row in bank b at cycle now. The caller must have checked
// ReadyAt and that the bank is closed.
func (c *Channel) Activate(b int, row int64, now uint64) {
	bk := &c.banks[b]
	t := c.cfg.Timing
	bk.OpenRow = row
	bk.nextRead = now + t.RCD
	bk.nextWrite = now + t.RCD
	bk.nextPre = now + t.RAS
	bk.nextAct = now + t.RC
	bk.served = 0
	bk.servedReads = 0
	bk.readOnly = true
	bk.conflictAct = bk.demandClosed
	bk.demandClosed = false
	bk.openedAt = now
	c.nextActAny = now + t.RRD
	c.stats.Activations++
	c.stats.Bank(b).Activations++
	c.trace.Add(obs.CmdACT, c.chanID, b, row, now)
}

// Precharge closes the open row of bank b at cycle now and records the
// row-buffer locality of the finished activation. It is the demand form —
// the scheduler closes the row to open another — so the next activation's
// first access counts as a row conflict.
func (c *Channel) Precharge(b int, now uint64) {
	c.precharge(b, now, true)
}

// PrechargeIdle closes the open row of bank b because it has no pending
// work (closed-row policy); the next activation's first access counts as a
// row miss, not a conflict.
func (c *Channel) PrechargeIdle(b int, now uint64) {
	c.precharge(b, now, false)
}

func (c *Channel) precharge(b int, now uint64, demand bool) {
	bk := &c.banks[b]
	c.trace.Add(obs.CmdPRE, c.chanID, b, bk.OpenRow, now)
	c.closeStats(bk)
	bk.OpenRow = NoRow
	bk.demandClosed = demand
	c.stats.Bank(b).Precharges++
	if n := now + c.cfg.Timing.RP; n > bk.nextAct {
		bk.nextAct = n
	}
}

// classifyColumn updates bank b's row hit/miss/conflict counters for one
// column access: reuse of the open row is a hit; the activation's first
// access is a conflict when the bank was demand-precharged, else a miss.
func (c *Channel) classifyColumn(b int, bk *Bank) {
	bs := c.stats.Bank(b)
	switch {
	case bk.served > 0:
		bs.RowHits++
	case bk.conflictAct:
		bs.RowConflicts++
	default:
		bs.RowMisses++
	}
}

func (c *Channel) closeStats(bk *Bank) {
	if bk.served > 0 {
		c.stats.RecordActivationClose(bk.served, bk.servedReads, bk.readOnly)
	}
	bk.served = 0
	bk.servedReads = 0
	bk.readOnly = true
}

// Read issues a RD at cycle now and returns the cycle at which the data burst
// completes on the bus (when the reply can leave the controller).
func (c *Channel) Read(b int, now uint64) (dataReady uint64) {
	bk := &c.banks[b]
	t := c.cfg.Timing
	// Burst occupies the data bus for CCD cycles starting at now+CL.
	c.stats.DataBusBusy += t.CCD
	c.stats.Reads++
	bs := c.stats.Bank(b)
	bs.Reads++
	bs.BusBusy += t.CCD
	c.classifyColumn(b, bk)
	c.trace.Add(obs.CmdRD, c.chanID, b, bk.OpenRow, now)
	bk.served++
	bk.servedReads++
	if n := now + t.RTP; n > bk.nextPre {
		bk.nextPre = n
	}
	c.nextColRead = now + t.CCD
	c.nextColGroup[bk.group] = now + t.CCDL
	// Read-to-write bus turnaround: the write burst must not collide with the
	// tail of the read burst.
	if n := now + t.CL + t.CCD - t.WL + 1; n > c.nextColWrite {
		c.nextColWrite = n
	}
	return now + t.CL + t.CCD
}

// Write issues a WR at cycle now and returns the cycle at which the write
// burst has been transferred.
func (c *Channel) Write(b int, now uint64) (done uint64) {
	bk := &c.banks[b]
	t := c.cfg.Timing
	c.stats.DataBusBusy += t.CCD
	c.stats.Writes++
	bs := c.stats.Bank(b)
	bs.Writes++
	bs.BusBusy += t.CCD
	c.classifyColumn(b, bk)
	c.trace.Add(obs.CmdWR, c.chanID, b, bk.OpenRow, now)
	bk.served++
	bk.readOnly = false
	if n := now + t.WL + t.CCD + t.WR; n > bk.nextPre {
		bk.nextPre = n
	}
	c.nextColWrite = now + t.CCD
	c.nextColGroup[bk.group] = now + t.CCDL
	// Write-to-read turnaround (tCDLR) applies channel wide.
	if n := now + t.WL + t.CCD + t.CDLR; n > c.nextColRead {
		c.nextColRead = n
	}
	return now + t.WL + t.CCD
}

// Drain records activation statistics for every still-open row. Call once at
// the end of a simulation so in-flight activations contribute to the RBL
// histogram.
func (c *Channel) Drain() {
	for i := range c.banks {
		c.closeStats(&c.banks[i])
	}
}
