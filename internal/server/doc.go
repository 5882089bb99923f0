// Package server hosts flowtuned, the networked allocator daemon: the
// centralized Flowtune rate allocator run as a long-lived process that
// endpoints talk to over the wire protocol of internal/wire.
//
// The daemon's control loop mirrors the paper's design: flowlet-start and
// flowlet-end notifications from client sessions are queued into an inbox
// and folded into the optimizer only at iteration boundaries; each iteration
// runs one NED step plus normalization (via the sequential core.Allocator,
// or the FlowBlock/LinkBlock multicore allocator when Config.Blocks is set)
// and fans the resulting rate updates back out to the sessions that
// registered the flows.
//
// Iterations are driven two ways. With Config.Interval set, an internal
// ticker free-runs the loop, and updates reach clients through per-session
// writer goroutines with coalescing backpressure: a slow client holds at
// most one pending rate per flow (latest wins), so it can never stall the
// allocator or grow daemon memory. With Interval zero the daemon is
// step-driven — a client Step frame triggers exactly one iteration and
// receives a synchronous reply batch — which is how the deterministic
// end-to-end tests and the daemon-backed scenarios run.
//
// Per-flow state — owner session, registration, pending rate and last-sent
// shadow — lives in one flow table of dense slots (flowtable.go); the
// engines echo each flow's slot in its rate updates, so fan-out needs no
// per-flow hash lookup.
//
// Sessions run over any net.Conn: loopback TCP via Serve, or an in-memory
// net.Pipe end via ServeConn. A disconnecting session's flowlets are retired
// at the next iteration boundary. Loop latency/throughput percentiles are
// exposed through LoopStats.
package server
