package sim

import (
	"lazydram/internal/core"
	"lazydram/internal/memimage"
)

// RunFunctional executes the kernel's warp programs directly against the
// memory image, without any timing model: loads read the image, stores write
// it, warps run sequentially. For race-free kernels (all of the bundled
// workloads write disjoint outputs) this produces the exact result, and is
// both the golden reference for application-error measurement and a fast
// oracle for testing the timed data path. Like Prepare, it sets the kernel's
// input up through the memo of post-Setup images.
func RunFunctional(kern Kernel, seed int64) []float32 {
	im := setupInput(kern, seed)
	// One Ctx and one callback serve every warp; each warp starts from
	// zeroed registers, as on the SM.
	ctx := new(core.Ctx)
	apply := func(op core.Op) bool {
		ApplyOp(im, ctx, op)
		return true
	}
	for ph := 0; ph < kern.Phases(); ph++ {
		for w := 0; w < kern.NumWarps(ph); w++ {
			*ctx = core.Ctx{}
			kern.Program(ph, w, ctx, apply)
		}
	}
	return kern.Output(im)
}

// ApplyOp applies one warp instruction functionally to the image.
func ApplyOp(im *memimage.Image, ctx *core.Ctx, op core.Op) {
	switch op.Kind {
	case core.OpLoad:
		for l := 0; l < core.WarpSize; l++ {
			if op.Lanes.Active&(1<<uint(l)) == 0 {
				continue
			}
			ctx.Regs[op.Dst][l] = im.Read32(op.Lanes.Addr(l))
		}
	case core.OpStore:
		for l := 0; l < core.WarpSize; l++ {
			if op.Lanes.Active&(1<<uint(l)) == 0 {
				continue
			}
			im.Write32(op.Lanes.Addr(l), op.Lanes.Vals[l])
		}
	case core.OpCompute:
		// no architectural effect
	}
}
