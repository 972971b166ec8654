package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"
)

func TestAuditLogNilSafe(t *testing.T) {
	var l *AuditLog
	l.Record(Decision{Reason: ReasonAMSDrop})
	l.RecordAdapt(AdaptPoint{Unit: "ams"})
	if l.Count(ReasonAMSDrop) != 0 || l.Total() != 0 {
		t.Fatal("nil log reported counts")
	}
	if l.Entries() != nil || l.Adapt() != nil || l.Summary() != nil {
		t.Fatal("nil log returned data")
	}
	if err := l.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

func TestAuditLogRingWrapKeepsExactCounts(t *testing.T) {
	l := NewAuditLog(4)
	for i := 0; i < 10; i++ {
		l.Record(Decision{Cycle: uint64(i), Reason: ReasonDMSDelayHold})
	}
	if l.Total() != 10 || l.Count(ReasonDMSDelayHold) != 10 {
		t.Fatalf("counts must survive wrap: total=%d count=%d", l.Total(), l.Count(ReasonDMSDelayHold))
	}
	ents := l.Entries()
	if len(ents) != 4 {
		t.Fatalf("ring retained %d entries, want 4", len(ents))
	}
	for i, d := range ents {
		if want := uint64(6 + i); d.Cycle != want {
			t.Fatalf("entry %d cycle %d, want %d (chronological, newest retained)", i, d.Cycle, want)
		}
	}
	s := l.Summary()
	if s.RingDropped != 6 {
		t.Fatalf("RingDropped = %d, want 6", s.RingDropped)
	}
}

func TestAuditSummaryAggregates(t *testing.T) {
	l := NewAuditLog(16)
	for i := 0; i < 5; i++ {
		l.Record(Decision{Reason: ReasonDMSDelayHold})
	}
	l.Record(Decision{Reason: ReasonDMSDelayExpired})
	l.Record(Decision{Reason: ReasonAMSDrop})
	l.Record(Decision{Reason: ReasonAMSRowOpen})
	l.Record(Decision{Reason: ReasonAMSHighRBL})
	l.Record(Decision{Reason: ReasonAMSHighRBL})
	l.RecordAdapt(AdaptPoint{Cycle: 1024, Unit: "dms", Delay: 128})
	s := l.Summary()
	if s.Total != 10 || s.DMSDelayHolds != 5 || s.DMSDelayExpiries != 1 || s.AMSDrops != 1 {
		t.Fatalf("summary aggregates wrong: %+v", s)
	}
	if s.AMSSkips != 3 {
		t.Fatalf("AMSSkips = %d, want 3 (skip-kind reasons only)", s.AMSSkips)
	}
	if len(s.Reasons) != 5 {
		t.Fatalf("Reasons has %d rows, want 5 non-zero reasons", len(s.Reasons))
	}
	for _, rc := range s.Reasons {
		if rc.Count == 0 {
			t.Fatalf("zero-count reason %q emitted", rc.Reason)
		}
	}
	if len(s.Adapt) != 1 || s.Adapt[0].Delay != 128 {
		t.Fatalf("adapt trace not carried into summary: %+v", s.Adapt)
	}
}

func TestReasonMetaComplete(t *testing.T) {
	for r := Reason(0); r < NumReasons; r++ {
		if r.String() == "" || r.Unit() == "" || r.Kind() == "" {
			t.Fatalf("reason %d has incomplete metadata", r)
		}
		switch r.Unit() {
		case "dms", "ams":
		default:
			t.Fatalf("reason %d has unknown unit %q", r, r.Unit())
		}
	}
}

func TestAuditWriteJSONL(t *testing.T) {
	l := NewAuditLog(8)
	l.Record(Decision{
		Cycle: 42, Channel: 2, Bank: 3, Row: 7, ReqID: 9,
		Reason: ReasonAMSDrop, VisibleRBL: 1, Delay: 128, ThRBL: 4, Coverage: 0.05,
	})
	l.Record(Decision{Cycle: 43, Reason: ReasonDMSDelayHold})
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines []map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line not valid JSON: %v", err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 2 {
		t.Fatalf("wrote %d lines, want 2", len(lines))
	}
	first := lines[0]
	if first["unit"] != "ams" || first["kind"] != "drop" || first["reason"] != "drop" {
		t.Fatalf("first line reason fields wrong: %v", first)
	}
	if first["cycle"].(float64) != 42 || first["coverage"].(float64) != 0.05 {
		t.Fatalf("first line inputs wrong: %v", first)
	}
	if lines[1]["unit"] != "dms" {
		t.Fatalf("second line unit %v, want dms", lines[1]["unit"])
	}
}

func TestTallyCountsWithoutRingDetail(t *testing.T) {
	l := NewAuditLog(8)
	for i := 0; i < 100; i++ {
		l.Tally(ReasonDMSDelayHold)
	}
	l.Record(Decision{Reason: ReasonAMSDrop})
	if l.Count(ReasonDMSDelayHold) != 100 || l.Total() != 101 {
		t.Fatalf("tally counts wrong: hold=%d total=%d", l.Count(ReasonDMSDelayHold), l.Total())
	}
	if got := len(l.Entries()); got != 1 {
		t.Fatalf("tally leaked %d ring entries, want 1 (the recorded drop)", got)
	}
	var nl *AuditLog
	nl.Tally(ReasonAMSDrop) // nil-safe
}

// TestRingDroppedIgnoresTallies: tallied decisions never enter the ring, so
// a ring larger than the recorded decisions drops none of them.
func TestRingDroppedIgnoresTallies(t *testing.T) {
	l := NewAuditLog(8)
	for i := 0; i < 100; i++ {
		l.Tally(ReasonDMSDelayHold)
	}
	for i := 0; i < 3; i++ {
		l.Record(Decision{Reason: ReasonAMSDrop})
	}
	if s := l.Summary(); s.Total != 103 || s.RingDropped != 0 {
		t.Fatalf("total %d, ring_dropped %d; want 103 and 0", s.Total, s.RingDropped)
	}
}

func TestAdaptTraceBounded(t *testing.T) {
	l := NewAuditLog(4)
	for i := 0; i < maxAdaptPoints+10; i++ {
		l.RecordAdapt(AdaptPoint{Cycle: uint64(i), Unit: "ams"})
	}
	if len(l.Adapt()) != maxAdaptPoints {
		t.Fatalf("adapt trace grew to %d, cap is %d", len(l.Adapt()), maxAdaptPoints)
	}
	if l.Summary().AdaptDropped != 10 {
		t.Fatalf("AdaptDropped = %d, want 10", l.Summary().AdaptDropped)
	}
}
