package core

import "unsafe"

// MaxBatch exposes the batch bound to the external tests.
const MaxBatch = maxBatch

// Pending reports whether a buffered op owns one of c's slots.
func Pending(c *Ctx) bool { return c.pending != [MaxRegs]bool{} }

// Coalesce exposes the load/store unit's grouping of lanes by line.
func Coalesce(ls *LaneSet) (lines []uint64, masks []uint32) {
	op := memOp{lanes: ls}
	op.numLines = coalesce(ls, &op.masks)
	for i := 0; i < op.numLines; i++ {
		lines = append(lines, op.line(i))
	}
	return lines, op.masks[:op.numLines]
}

// WarpRecordBytes is the size of a warp slot's record.
const WarpRecordBytes = unsafe.Sizeof(warp{})
