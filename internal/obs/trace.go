package obs

import (
	"bufio"
	"fmt"
	"io"
)

// CmdKind is a DRAM command class.
type CmdKind uint8

// DRAM command kinds.
const (
	CmdACT CmdKind = iota
	CmdPRE
	CmdRD
	CmdWR
	numCmdKinds
)

var cmdNames = [numCmdKinds]string{"ACT", "PRE", "RD", "WR"}

// String returns the command mnemonic.
func (k CmdKind) String() string {
	if int(k) < len(cmdNames) {
		return cmdNames[k]
	}
	return fmt.Sprintf("Cmd(%d)", uint8(k))
}

// Cmd is one traced DRAM command.
type Cmd struct {
	Cycle   uint64  // memory cycle the command issued
	Row     int64   // target row (the open row for PRE/RD/WR)
	Channel int16   // memory channel / partition id
	Bank    int16   // bank
	Kind    CmdKind // command class
}

// CmdTrace is a bounded ring buffer of DRAM commands: when full, the oldest
// entries are overwritten, so the trace always holds the most recent window
// of activity. A nil *CmdTrace discards everything.
type CmdTrace struct {
	ring ring[Cmd]
}

// NewCmdTrace creates a trace ring with the given capacity (in commands);
// capacity must be positive.
func NewCmdTrace(capacity int) *CmdTrace {
	if capacity <= 0 {
		panic("obs: trace capacity must be positive")
	}
	return &CmdTrace{ring: ring[Cmd]{limit: capacity}}
}

// Add appends one command; nil-safe.
func (t *CmdTrace) Add(kind CmdKind, channel, bank int, row int64, cycle uint64) {
	if t == nil {
		return
	}
	t.ring.add(Cmd{
		Cycle: cycle, Row: row,
		Channel: int16(channel), Bank: int16(bank), Kind: kind,
	})
}

// Total returns how many commands were ever offered (nil-safe).
func (t *CmdTrace) Total() uint64 {
	if t == nil {
		return 0
	}
	return t.ring.total
}

// Dropped returns how many commands were overwritten after the ring wrapped
// (nil-safe).
func (t *CmdTrace) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.ring.dropped()
}

// Commands returns the retained commands in issue order (oldest first).
func (t *CmdTrace) Commands() []Cmd {
	if t == nil {
		return nil
	}
	return t.ring.items()
}

// WriteChromeTrace writes the retained commands as a Chrome trace_event JSON
// document (load it at chrome://tracing or https://ui.perfetto.dev). Each
// command becomes a 1-unit complete event; channels map to processes and
// banks to threads, with timestamps in memory cycles.
func (t *CmdTrace) WriteChromeTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`); err != nil {
		return err
	}
	for i, c := range t.Commands() {
		sep := ","
		if i == 0 {
			sep = ""
		}
		fmt.Fprintf(bw, `%s{"name":%q,"ph":"X","ts":%d,"dur":1,"pid":%d,"tid":%d,"args":{"row":%d}}`,
			sep, c.Kind.String(), c.Cycle, c.Channel, c.Bank, c.Row)
	}
	if _, err := bw.WriteString("]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteJSONL writes the retained commands as one JSON object per line.
func (t *CmdTrace) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, c := range t.Commands() {
		if _, err := fmt.Fprintf(bw, `{"cycle":%d,"cmd":%q,"channel":%d,"bank":%d,"row":%d}`+"\n",
			c.Cycle, c.Kind.String(), c.Channel, c.Bank, c.Row); err != nil {
			return err
		}
	}
	return bw.Flush()
}
