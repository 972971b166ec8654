package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"

	"lazydram/internal/memimage"
)

// inputs memoizes every kernel input the process builds: one post-Setup
// image per (kernel type, kernel value before Setup, seed), which every run
// of that input forks copy-on-write. An input lives exactly as long as some
// run or retained Result uses it: each run's image is a fork of a lease, a
// per-run fork of the base, and the entry is dropped once the collector has
// finalized its last lease. Nothing else keeps a base alive, so the memo
// never grows with the inputs a process has seen.
var inputs = struct {
	mu     sync.Mutex
	m      map[inputKey]*input
	builds int // Setups started, for tests
}{m: map[inputKey]*input{}}

// inputKey names one input. kern is the kernel's struct value before Setup;
// as an interface value it carries the kernel's type too.
type inputKey struct {
	kern any
	seed int64
}

// input is one memoized Setup. ready is closed once the build has returned;
// base and kern are set then, unless Setup panicked. leases counts the
// leases not yet finalized, under inputs.mu.
type input struct {
	key    inputKey
	ready  chan struct{}
	base   *memimage.Image
	kern   reflect.Value // the post-Setup struct value
	leases int
}

// setupInput gives kern its post-Setup value for seed and returns a fork of
// that input's image, running Setup only if no live run holds the input.
// Concurrent callers with one key wait for a single build.
func setupInput(kern Kernel, seed int64) *memimage.Image {
	kv := reflect.ValueOf(kern)
	if kv.Kind() != reflect.Pointer || kv.Elem().Kind() != reflect.Struct || !kv.Elem().Comparable() {
		panic(fmt.Sprintf("sim: kernel %T is not a pointer to a comparable struct", kern))
	}
	kv = kv.Elem()
	key := inputKey{kv.Interface(), seed}
	for {
		inputs.mu.Lock()
		in, found := inputs.m[key]
		if !found {
			in = &input{key: key, ready: make(chan struct{})}
			inputs.m[key] = in
			inputs.builds++
		}
		inputs.mu.Unlock()
		if found {
			<-in.ready
		} else {
			in.build()
		}
		if im := in.lease(); im != nil {
			kv.Set(in.kern)
			return im
		}
	}
}

// build runs Setup on a copy of the key's kernel value into a new base image.
func (in *input) build() {
	defer close(in.ready)
	kv := reflect.New(reflect.TypeOf(in.key.kern))
	kv.Elem().Set(reflect.ValueOf(in.key.kern))
	kern := kv.Interface().(Kernel)
	base := memimage.New(kern.MemBytes() + 4*memimage.LineSize)
	kern.Setup(base, rand.New(rand.NewSource(in.key.seed)))
	in.base, in.kern = base, kv.Elem()
}

// lease returns one run's fork of the base, or nil if in has left the memo
// (its last lease was finalized first) or its Setup panicked. The run's
// fork holds the lease, a fork of its own that is never written, so the
// lease's finalizer runs only after the run's image is unreachable, without
// delaying the collection of the pages that run copied, as a finalizer on
// the run's image would.
func (in *input) lease() *memimage.Image {
	inputs.mu.Lock()
	defer inputs.mu.Unlock()
	if inputs.m[in.key] != in {
		return nil
	}
	if in.base == nil {
		delete(inputs.m, in.key)
		return nil
	}
	in.leases++
	l := in.base.Fork()
	runtime.SetFinalizer(l, in.release)
	return l.Fork()
}

// release drops in from the memo when its last lease is finalized.
func (in *input) release(*memimage.Image) {
	inputs.mu.Lock()
	defer inputs.mu.Unlock()
	if in.leases--; in.leases == 0 && inputs.m[in.key] == in {
		delete(inputs.m, in.key)
	}
}
