package sim

// SetTickEvery makes g tick every SM and poll every reply port on every
// cycle, ignoring the SMs' horizons: the reference the event-driven core
// side must match.
func SetTickEvery(g *GPU) { g.tickEvery = true }

// ReqPackets returns the number of transactions the SMs injected into the
// request network.
func ReqPackets(g *GPU) uint64 { return g.reqNet.Sent() }

// PublishMetrics runs one live-metrics publish of g's current state.
func PublishMetrics(g *GPU) { g.publishMetrics() }
