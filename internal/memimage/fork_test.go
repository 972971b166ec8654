package memimage_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"lazydram/internal/memimage"
)

// forkCap is three full pages and a partial one, so writes land on every
// kind of page and words can straddle page boundaries.
const forkCap = 3*4096 + 256

// flat is the reference model of one image: a plain byte slice.
type flat []byte

func (m flat) inRange(addr, n uint64) bool {
	return addr <= uint64(len(m)) && n <= uint64(len(m))-addr
}

// panics reports whether f panics.
func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

// forkOps replays ops, a byte string, against a base image, then against
// the base and two sibling forks of it, mirroring every write in flat
// models. Each op is a target byte (which image; before the fork always the
// base), a kind byte, a 16-bit address (taken modulo a little more than the
// capacity) and a 32-bit value. Every read and the final contents must match
// the models, and an access the model calls out of range must panic.
func forkOps(t *testing.T, ops []byte) {
	t.Helper()
	ims := []*memimage.Image{memimage.New(forkCap)}
	models := []flat{make(flat, ims[0].Size())}
	forked := false
	for len(ops) >= 8 {
		target, kind := int(ops[0]), ops[1]
		addr := uint64(binary.LittleEndian.Uint16(ops[2:])) % (forkCap + 512)
		val := binary.LittleEndian.Uint32(ops[4:])
		ops = ops[8:]
		if kind%8 == 7 && !forked {
			for i := 0; i < 2; i++ {
				ims = append(ims, ims[0].Fork())
				models = append(models, bytes.Clone(models[0]))
			}
			forked = true
			compareAll(t, "after fork", ims, models)
			continue
		}
		im, m := ims[target%len(ims)], models[target%len(ims)]
		switch kind % 8 {
		case 0, 1: // Write32
			ok := m.inRange(addr, 4)
			if ok {
				binary.LittleEndian.PutUint32(m[addr:], val)
			}
			if got := panics(func() { im.Write32(addr, val) }); got == ok {
				t.Fatalf("Write32(%d) panicked %v, in range %v", addr, got, ok)
			}
		case 2: // WriteLine
			line := addr &^ (memimage.LineSize - 1)
			src := make([]byte, memimage.LineSize)
			for i := range src {
				src[i] = byte(val) + byte(i)
			}
			ok := m.inRange(line, memimage.LineSize)
			if ok {
				copy(m[line:], src)
			}
			if got := panics(func() { im.WriteLine(addr, src) }); got == ok {
				t.Fatalf("WriteLine(%d) panicked %v, in range %v", addr, got, ok)
			}
		case 3: // WriteF32Slice: words land in order until one is out of range
			vals := make([]float32, val%9)
			ok := true
			for i := range vals {
				vals[i] = float32(val) + float32(i)
				a := addr + uint64(4*i)
				if ok = ok && m.inRange(a, 4); ok {
					binary.LittleEndian.PutUint32(m[a:], math.Float32bits(vals[i]))
				}
			}
			if got := panics(func() { im.WriteF32Slice(addr, vals) }); got == ok {
				t.Fatalf("WriteF32Slice(%d, %d values) panicked %v, in range %v", addr, len(vals), got, ok)
			}
		case 4, 5: // Read32
			ok := m.inRange(addr, 4)
			var got uint32
			if p := panics(func() { got = im.Read32(addr) }); p == ok {
				t.Fatalf("Read32(%d) panicked %v, in range %v", addr, p, ok)
			}
			if ok && got != binary.LittleEndian.Uint32(m[addr:]) {
				t.Fatalf("Read32(%d) = %#x, model %#x", addr, got, binary.LittleEndian.Uint32(m[addr:]))
			}
		case 6: // ReadLine
			line := addr &^ (memimage.LineSize - 1)
			ok := m.inRange(line, memimage.LineSize)
			dst := make([]byte, memimage.LineSize)
			if p := panics(func() { im.ReadLine(addr, dst) }); p == ok {
				t.Fatalf("ReadLine(%d) panicked %v, in range %v", addr, p, ok)
			}
			if ok && !bytes.Equal(dst, m[line:line+memimage.LineSize]) {
				t.Fatalf("ReadLine(%d) differs from the model", addr)
			}
		}
	}
	compareAll(t, "at the end", ims, models)
}

// compareAll checks every image against its model, line by line.
func compareAll(t *testing.T, when string, ims []*memimage.Image, models []flat) {
	t.Helper()
	dst := make([]byte, memimage.LineSize)
	for i, im := range ims {
		if im.Size() != uint64(len(models[i])) {
			t.Fatalf("%s: image %d has size %d, model %d", when, i, im.Size(), len(models[i]))
		}
		for a := uint64(0); a < im.Size(); a += memimage.LineSize {
			im.ReadLine(a, dst)
			if !bytes.Equal(dst, models[i][a:a+memimage.LineSize]) {
				t.Fatalf("%s: image %d line %d differs from its model", when, i, a)
			}
		}
	}
}

// TestForkMatchesFlat runs random op strings through forkOps: writes before
// the fork, then to the base and to each of two sibling forks.
func TestForkMatchesFlat(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(200)
		ops := make([]byte, 8*n)
		rng.Read(ops)
		// Put half the addresses near page boundaries and the image's end.
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				a := uint16(4096*(1+rng.Intn(4)) + rng.Intn(16) - 8)
				binary.LittleEndian.PutUint16(ops[8*i+2:], a)
			}
		}
		// Fork about a third of the way in.
		ops[8*(n/3)+1] = 7
		forkOps(t, ops)
	}
}

func FuzzForkMatchesFlat(f *testing.F) {
	word := func(target, kind byte, addr uint16, v uint32) []byte {
		b := []byte{target, kind, 0, 0, 0, 0, 0, 0}
		binary.LittleEndian.PutUint16(b[2:], addr)
		binary.LittleEndian.PutUint32(b[4:], v)
		return b
	}
	f.Add(bytes.Join([][]byte{
		word(0, 0, 100, 1), word(0, 2, 4096, 2), word(0, 7, 0, 0),
		word(1, 0, 100, 3), word(2, 0, 4094, 4), word(0, 3, 8190, 5),
		word(1, 4, 100, 0), word(2, 4, 100, 0), word(0, 6, 4096, 0),
	}, nil))
	f.Add(bytes.Join([][]byte{
		word(0, 0, forkCap-4, 1), word(0, 0, forkCap-2, 1), word(0, 7, 0, 0),
		word(1, 2, forkCap-1, 9), word(2, 3, forkCap-16, 8), word(1, 5, 12286, 0),
	}, nil))
	f.Fuzz(forkOps)
}
