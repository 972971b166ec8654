package sim

import (
	"reflect"

	"lazydram/internal/memimage"
)

// SetTickEvery makes g tick every SM and poll every reply port on every
// cycle, ignoring the SMs' horizons: the reference the event-driven core
// side must match.
func SetTickEvery(g *GPU) { g.tickEvery = true }

// ReqPackets returns the number of transactions the SMs injected into the
// request network.
func ReqPackets(g *GPU) uint64 { return g.reqNet.Sent() }

// PublishMetrics runs one live-metrics publish of g's current state.
func PublishMetrics(g *GPU) { g.publishMetrics() }

// SetupInput sets kern up for seed through the input memo and returns the
// run's fork of the input image.
func SetupInput(kern Kernel, seed int64) *memimage.Image { return setupInput(kern, seed) }

// InputMemo returns the number of inputs the memo holds and the number of
// Setups it has started.
func InputMemo() (entries, builds int) {
	inputs.mu.Lock()
	defer inputs.mu.Unlock()
	return len(inputs.m), inputs.builds
}

// InputLeases returns the number of unfinalized leases of the input that
// kern, not yet set up, has at seed, or 0 if the memo does not hold it.
func InputLeases(kern Kernel, seed int64) int {
	inputs.mu.Lock()
	defer inputs.mu.Unlock()
	if in := inputs.m[inputKey{reflect.ValueOf(kern).Elem().Interface(), seed}]; in != nil {
		return in.leases
	}
	return 0
}
