package sim

// SetTickEvery makes g tick every SM and poll every reply port on every
// cycle, ignoring the SMs' horizons: the reference the event-driven core
// side must match.
func SetTickEvery(g *GPU) { g.tickEvery = true }

// ReqPackets returns the number of transactions the SMs injected into the
// request network.
func ReqPackets(g *GPU) uint64 { return g.reqNet.Sent() }

// SetParallelSMs makes g run every cycle's SM phase on a two-worker pool,
// whatever GOMAXPROCS and the phase's cost.
func SetParallelSMs(g *GPU) { g.forcePar = true }

// ParallelSMPhases returns the number of SM phases g ran on its pool.
func ParallelSMPhases(g *GPU) uint64 { return g.parPhases }

// PublishMetrics runs one live-metrics publish of g's current state.
func PublishMetrics(g *GPU) { g.publishMetrics() }
