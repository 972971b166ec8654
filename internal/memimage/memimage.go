// Package memimage provides the simulated global (DRAM) memory image and a
// bump allocator for workload buffers.
//
// The image is the functional ground truth of the simulation: DRAM reads are
// served from it and dirty L2 write-backs are applied to it. Approximated
// (value-predicted) data never reaches the image; it only lives in caches and
// in warp registers, mirroring the paper's value-prediction unit which
// operates on the reply path.
//
// An image is paged so that runs over one input can share it: Fork returns a
// copy-on-write image that shares every page with its base and copies a page
// the first time either side writes to it.
package memimage

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
)

// LineSize is the cache-line (and DRAM access) granularity in bytes.
const LineSize = 128

// pageSize is the copy-on-write granularity. It is a multiple of LineSize,
// so a line never straddles two pages.
const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// Image is a paged simulated physical address space.
//
// The zero value is not usable; create one with New or Fork. An image is not
// safe for concurrent writes; any number of goroutines may read it, and fork
// it, while nobody writes it.
type Image struct {
	// pages[i] holds bytes [i*pageSize, (i+1)*pageSize); the last page ends
	// at Size and may be shorter.
	pages [][]byte
	// own[i] equals epoch when pages[i] is this image's private copy. Any
	// other value marks it shared with a fork or a base, to be copied before
	// its first write. Fork advances its receiver's epoch, which turns every
	// page the receiver owned into a shared one.
	own   []uint64
	epoch atomic.Uint64
	// base is the image this one was forked from, held so that a base lives
	// as long as any fork of it does.
	base *Image
	size uint64
	brk  uint64
}

// New creates an image of the given capacity in bytes, rounded up to a
// multiple of LineSize.
func New(capacity uint64) *Image {
	capacity = (capacity + LineSize - 1) / LineSize * LineSize
	n := (capacity + pageSize - 1) >> pageShift
	im := &Image{
		pages: make([][]byte, n),
		own:   make([]uint64, n),
		size:  capacity,
		// Leave line 0 unused so that address 0 can mean "no address".
		brk: LineSize,
	}
	data := make([]byte, capacity)
	for i := range im.pages {
		lo := uint64(i) << pageShift
		hi := min(lo+pageSize, capacity)
		im.pages[i] = data[lo:hi:hi]
	}
	return im
}

// Fork returns an image with im's contents and allocator state. The two
// share every page until one of them writes to it, so a fork costs a page
// table, not a copy of the data. The fork holds im.
func (im *Image) Fork() *Image {
	im.epoch.Add(1)
	f := &Image{
		pages: slices.Clone(im.pages),
		own:   make([]uint64, len(im.pages)),
		base:  im,
		size:  im.size,
		brk:   im.brk,
	}
	f.epoch.Store(1)
	return f
}

// Size returns the capacity of the image in bytes.
func (im *Image) Size() uint64 { return im.size }

// Alloc reserves size bytes aligned to LineSize and returns the base address.
// It panics if the image is exhausted; workloads size their images up front.
func (im *Image) Alloc(size uint64) uint64 {
	base := im.brk
	size = (size + LineSize - 1) / LineSize * LineSize
	if base+size > im.size {
		panic(fmt.Sprintf("memimage: out of memory: need %d at %d, capacity %d",
			size, base, im.size))
	}
	im.brk += size
	return base
}

// writable returns the page holding addr for writing, first copying it if
// it is shared.
func (im *Image) writable(addr uint64) []byte {
	i := addr >> pageShift
	if e := im.epoch.Load(); im.own[i] != e {
		p := make([]byte, len(im.pages[i]))
		copy(p, im.pages[i])
		im.pages[i] = p
		im.own[i] = e
	}
	return im.pages[i]
}

// ReadLine copies the 128-byte line containing addr into dst.
func (im *Image) ReadLine(addr uint64, dst []byte) {
	p, off := im.pages[addr>>pageShift], addr&(pageMask&^(LineSize-1))
	copy(dst[:LineSize], p[off:off+LineSize])
}

// WriteLine stores a full 128-byte line at the line containing addr.
func (im *Image) WriteLine(addr uint64, src []byte) {
	src = src[:LineSize]
	p, off := im.writable(addr), addr&(pageMask&^(LineSize-1))
	copy(p[off:off+LineSize], src)
}

// Read32 returns the little-endian 32-bit word at addr.
func (im *Image) Read32(addr uint64) uint32 {
	p, off := im.pages[addr>>pageShift], addr&pageMask
	if off+4 <= uint64(len(p)) {
		return binary.LittleEndian.Uint32(p[off:])
	}
	var b [4]byte
	im.straddle(addr, b[:], false)
	return binary.LittleEndian.Uint32(b[:])
}

// Write32 stores a little-endian 32-bit word at addr.
func (im *Image) Write32(addr uint64, v uint32) {
	p, off := im.writable(addr), addr&pageMask
	if off+4 <= uint64(len(p)) {
		binary.LittleEndian.PutUint32(p[off:], v)
		return
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	im.straddle(addr, b[:], true)
}

// check panics unless [addr, addr+n) lies inside the image.
func (im *Image) check(addr, n uint64) {
	if addr > im.size || n > im.size-addr {
		panic(fmt.Sprintf("memimage: access of %d bytes at %d outside capacity %d", n, addr, im.size))
	}
}

// straddle reads (or, if write, writes) buf at addr byte by byte, for the
// unaligned words that cross a page boundary.
func (im *Image) straddle(addr uint64, buf []byte, write bool) {
	im.check(addr, uint64(len(buf)))
	for i := range buf {
		a := addr + uint64(i)
		if write {
			im.writable(a)[a&pageMask] = buf[i]
		} else {
			buf[i] = im.pages[a>>pageShift][a&pageMask]
		}
	}
}

// ReadF32 returns the float32 stored at addr.
func (im *Image) ReadF32(addr uint64) float32 {
	return math.Float32frombits(im.Read32(addr))
}

// WriteF32 stores a float32 at addr.
func (im *Image) WriteF32(addr uint64, v float32) {
	im.Write32(addr, math.Float32bits(v))
}

// ReadF32Slice copies n float32 values starting at addr into a new slice.
func (im *Image) ReadF32Slice(addr uint64, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = im.ReadF32(addr + uint64(4*i))
	}
	return out
}

// WriteF32Slice stores the values consecutively starting at addr.
func (im *Image) WriteF32Slice(addr uint64, vals []float32) {
	for i, v := range vals {
		im.WriteF32(addr+uint64(4*i), v)
	}
}
