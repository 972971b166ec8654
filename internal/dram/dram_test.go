package dram_test

import (
	"testing"

	"lazydram/internal/dram"
	"lazydram/internal/obs"
	"lazydram/internal/stats"
)

func newChannel(t *testing.T) (*dram.Channel, *stats.Mem) {
	t.Helper()
	st := &stats.Mem{}
	return dram.NewChannel(dram.DefaultConfig(), st), st
}

// legal reports whether cmd may issue to bank b at cycle now: the bank's row
// state allows it (ACT needs a closed bank, the rest an open one) and both
// ReadyAt scopes have elapsed.
func legal(ch *dram.Channel, b int, cmd obs.CmdKind, now uint64) bool {
	if (ch.OpenRow(b) == dram.NoRow) != (cmd == obs.CmdACT) {
		return false
	}
	bank, channel := ch.ReadyAt(b, cmd)
	return now >= bank && now >= channel
}

func TestActivateOpensRow(t *testing.T) {
	ch, st := newChannel(t)
	if !legal(ch, 0, obs.CmdACT, 0) {
		t.Fatal("fresh bank must accept ACT")
	}
	ch.Activate(0, 7, 0)
	if got := ch.OpenRow(0); got != 7 {
		t.Fatalf("OpenRow = %d, want 7", got)
	}
	if st.Activations != 1 {
		t.Fatalf("Activations = %d, want 1", st.Activations)
	}
}

func TestActivateRequiresPrechargedBank(t *testing.T) {
	ch, _ := newChannel(t)
	ch.Activate(0, 1, 0)
	if legal(ch, 0, obs.CmdACT, 1000) {
		t.Fatal("open bank must not accept ACT")
	}
}

func TestReadRespectsTRCD(t *testing.T) {
	ch, _ := newChannel(t)
	tm := dram.HynixGDDR5()
	ch.Activate(0, 1, 0)
	if legal(ch, 0, obs.CmdRD, tm.RCD-1) {
		t.Fatalf("RD allowed %d cycles after ACT; tRCD=%d", tm.RCD-1, tm.RCD)
	}
	if !legal(ch, 0, obs.CmdRD, tm.RCD) {
		t.Fatal("RD must be allowed at tRCD")
	}
}

func TestPrechargeRespectsTRAS(t *testing.T) {
	ch, _ := newChannel(t)
	tm := dram.HynixGDDR5()
	ch.Activate(0, 1, 0)
	if legal(ch, 0, obs.CmdPRE, tm.RAS-1) {
		t.Fatal("PRE before tRAS must be illegal")
	}
	if !legal(ch, 0, obs.CmdPRE, tm.RAS) {
		t.Fatal("PRE at tRAS must be legal")
	}
}

func TestActToActSameBankRespectsTRC(t *testing.T) {
	ch, _ := newChannel(t)
	tm := dram.HynixGDDR5()
	ch.Activate(0, 1, 0)
	ch.Precharge(0, tm.RAS)
	if legal(ch, 0, obs.CmdACT, tm.RC-1) {
		t.Fatalf("ACT allowed %d cycles after previous ACT; tRC=%d", tm.RC-1, tm.RC)
	}
	if !legal(ch, 0, obs.CmdACT, tm.RC) {
		t.Fatal("ACT must be allowed at tRC")
	}
}

func TestActToActAcrossBanksRespectsTRRD(t *testing.T) {
	ch, _ := newChannel(t)
	tm := dram.HynixGDDR5()
	ch.Activate(0, 1, 0)
	if legal(ch, 1, obs.CmdACT, tm.RRD-1) {
		t.Fatal("cross-bank ACT before tRRD must be illegal")
	}
	if !legal(ch, 1, obs.CmdACT, tm.RRD) {
		t.Fatal("cross-bank ACT at tRRD must be legal")
	}
}

func TestColumnSpacingRespectsTCCD(t *testing.T) {
	ch, _ := newChannel(t)
	tm := dram.HynixGDDR5()
	ch.Activate(0, 1, 0)
	ch.Activate(1, 2, tm.RRD)
	now := tm.RCD + tm.RRD
	ch.Read(0, now)
	if legal(ch, 1, obs.CmdRD, now+tm.CCD-1) {
		t.Fatal("second RD before tCCD must be illegal")
	}
	if !legal(ch, 1, obs.CmdRD, now+tm.CCD) {
		t.Fatal("second RD at tCCD must be legal")
	}
}

func TestWriteToReadTurnaround(t *testing.T) {
	ch, _ := newChannel(t)
	tm := dram.HynixGDDR5()
	ch.Activate(0, 1, 0)
	ch.Activate(1, 2, tm.RRD)
	now := tm.RCD + tm.RRD
	ch.Write(0, now)
	earliest := now + tm.WL + tm.CCD + tm.CDLR
	if legal(ch, 1, obs.CmdRD, earliest-1) {
		t.Fatal("RD before write-to-read turnaround must be illegal")
	}
	if !legal(ch, 1, obs.CmdRD, earliest) {
		t.Fatal("RD at write-to-read turnaround must be legal")
	}
}

func TestReadToPrecharge(t *testing.T) {
	ch, _ := newChannel(t)
	tm := dram.HynixGDDR5()
	ch.Activate(0, 1, 0)
	now := tm.RAS // past tRAS so only tRTP can gate
	ch.Read(0, now)
	if legal(ch, 0, obs.CmdPRE, now+tm.RTP-1) {
		t.Fatal("PRE before tRTP after RD must be illegal")
	}
	if !legal(ch, 0, obs.CmdPRE, now+tm.RTP) {
		t.Fatal("PRE at tRTP after RD must be legal")
	}
}

func TestWriteDelaysPrecharge(t *testing.T) {
	ch, _ := newChannel(t)
	tm := dram.HynixGDDR5()
	ch.Activate(0, 1, 0)
	now := tm.RAS
	ch.Write(0, now)
	earliest := now + tm.WL + tm.CCD + tm.WR
	if legal(ch, 0, obs.CmdPRE, earliest-1) {
		t.Fatal("PRE before write recovery must be illegal")
	}
	if !legal(ch, 0, obs.CmdPRE, earliest) {
		t.Fatal("PRE at write recovery must be legal")
	}
}

func TestReadReturnsDataReadyTime(t *testing.T) {
	ch, _ := newChannel(t)
	tm := dram.HynixGDDR5()
	ch.Activate(0, 1, 0)
	got := ch.Read(0, tm.RCD)
	want := tm.RCD + tm.CL + tm.CCD
	if got != want {
		t.Fatalf("Read ready = %d, want %d", got, want)
	}
}

func TestRBLAccountingOnPrecharge(t *testing.T) {
	ch, st := newChannel(t)
	tm := dram.HynixGDDR5()
	ch.Activate(0, 1, 0)
	now := tm.RCD
	for i := 0; i < 3; i++ {
		now = ch.Read(0, now)
	}
	ch.Precharge(0, now+tm.RTP+tm.RAS)
	if st.RBL[3] != 1 {
		t.Fatalf("RBL[3] = %d, want 1", st.RBL[3])
	}
	if st.ReadOnlyActs != 1 {
		t.Fatalf("ReadOnlyActs = %d, want 1", st.ReadOnlyActs)
	}
}

func TestWriteClearsReadOnlyFlag(t *testing.T) {
	ch, st := newChannel(t)
	tm := dram.HynixGDDR5()
	ch.Activate(0, 1, 0)
	ch.Read(0, tm.RCD)
	ch.Write(0, tm.RCD+tm.CCD+tm.CL)
	ch.Drain()
	if st.ReadOnlyActs != 0 {
		t.Fatalf("ReadOnlyActs = %d, want 0 after a write", st.ReadOnlyActs)
	}
	if st.RBL[2] != 1 {
		t.Fatalf("RBL[2] = %d, want 1", st.RBL[2])
	}
}

func TestDrainRecordsOpenActivations(t *testing.T) {
	ch, st := newChannel(t)
	tm := dram.HynixGDDR5()
	ch.Activate(0, 1, 0)
	ch.Read(0, tm.RCD)
	if st.RBL[1] != 0 {
		t.Fatal("activation recorded before row closed")
	}
	ch.Drain()
	if st.RBL[1] != 1 {
		t.Fatalf("RBL[1] = %d after Drain, want 1", st.RBL[1])
	}
	// Drain must be idempotent.
	ch.Drain()
	if st.RBL[1] != 1 {
		t.Fatal("Drain double-counted an activation")
	}
}

func TestDataBusBusyAccounting(t *testing.T) {
	ch, st := newChannel(t)
	tm := dram.HynixGDDR5()
	ch.Activate(0, 1, 0)
	now := tm.RCD
	now = ch.Read(0, now)
	ch.Write(0, now)
	if want := 2 * tm.CCD; st.DataBusBusy != want {
		t.Fatalf("DataBusBusy = %d, want %d", st.DataBusBusy, want)
	}
	if st.Reads != 1 || st.Writes != 1 {
		t.Fatalf("Reads=%d Writes=%d, want 1/1", st.Reads, st.Writes)
	}
}

func TestBankGroupCCDL(t *testing.T) {
	cfg := dram.DefaultConfig()
	cfg.Timing.CCDL = 3
	st := &stats.Mem{}
	ch := dram.NewChannel(cfg, st)
	tm := cfg.Timing
	// Banks 0 and 4 share bank group 0 (group = bank % 4); bank 1 is in
	// group 1.
	ch.Activate(0, 1, 0)
	ch.Activate(4, 1, tm.RRD)
	ch.Activate(1, 1, 2*tm.RRD)
	now := tm.RCD + 2*tm.RRD
	ch.Read(0, now)
	if legal(ch, 4, obs.CmdRD, now+tm.CCD) {
		t.Fatal("same-group RD at tCCD must be illegal when tCCDL is set")
	}
	if !legal(ch, 1, obs.CmdRD, now+tm.CCD) {
		t.Fatal("cross-group RD at tCCD must be legal")
	}
	if !legal(ch, 4, obs.CmdRD, now+tm.CCDL) {
		t.Fatal("same-group RD at tCCDL must be legal")
	}
}
