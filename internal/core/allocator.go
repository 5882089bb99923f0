package core

import (
	"fmt"
	"math"

	"repro/internal/norm"
	"repro/internal/num"
	"repro/internal/topology"
)

// Control-message payload sizes from §6.2: notifications of flowlet start,
// flowlet end, and rate updates are encoded in 16, 4 and 6 bytes plus
// standard TCP/IP overheads.
const (
	// FlowletStartBytes is the payload size of a flowlet-start notification.
	FlowletStartBytes = 16
	// FlowletEndBytes is the payload size of a flowlet-end notification.
	FlowletEndBytes = 4
	// RateUpdateBytes is the payload size of one rate update.
	RateUpdateBytes = 6
	// perMessageOverheadBytes is the amortized per-notification share of
	// TCP/IP/Ethernet framing, assuming notifications are batched into
	// MTU-sized packets by the endpoints and the allocator.
	perMessageOverheadBytes = 4
)

// FlowID identifies a flowlet registered with the allocator.
type FlowID int64

// Config configures an Allocator.
type Config struct {
	// Topology is the fabric the allocator schedules. Required.
	Topology *topology.Topology
	// Gamma is NED's step-size parameter γ (default 0.4, the value used in
	// the paper's simulations).
	Gamma float64
	// UpdateThreshold is the relative rate-change threshold above which
	// endpoints are notified (default 0.01). To keep links from being
	// over-utilized between notifications, the allocator reserves the same
	// fraction of link capacity as headroom (§6.4).
	UpdateThreshold float64
	// Normalizer selects the normalization scheme. Nil means F-NORM.
	Normalizer norm.Normalizer
	// Solver selects the optimization algorithm. Nil means NED with Gamma.
	Solver num.Solver
	// IterationInterval is the wall-clock interval between allocator
	// iterations in seconds (default 10 µs, §6.2). It is used to convert
	// per-iteration update counts into traffic rates.
	IterationInterval float64
}

// withDefaults fills in unset fields.
func (c Config) withDefaults() (Config, error) {
	if c.Topology == nil {
		return c, fmt.Errorf("core: Config.Topology is required")
	}
	if c.Gamma == 0 {
		c.Gamma = 0.4
	}
	if c.UpdateThreshold == 0 {
		c.UpdateThreshold = 0.01
	}
	if c.UpdateThreshold < 0 || c.UpdateThreshold >= 1 {
		return c, fmt.Errorf("core: UpdateThreshold must be in [0,1), got %g", c.UpdateThreshold)
	}
	if c.Normalizer == nil {
		c.Normalizer = norm.NewFNorm()
	}
	if c.Solver == nil {
		c.Solver = &num.NED{Gamma: c.Gamma}
	}
	if c.IterationInterval == 0 {
		c.IterationInterval = 10e-6
	}
	return c, nil
}

// flowState is the allocator's bookkeeping for one registered flowlet.
type flowState struct {
	id       FlowID
	src, dst int
	weight   float64
	// size is the endpoint's flowlet-size hint in bytes (0 = unknown).
	// Solvers ignore it today; it is kept for size-aware utilities.
	size int64
	// lastNotified is the rate most recently sent to the endpoint, or 0 if
	// the endpoint has never been notified.
	lastNotified float64
	// slot is the caller's dense index for the flow (SetFlowSlot), echoed
	// in its rate updates.
	slot int32
}

// RateUpdate is one rate notification for an endpoint.
type RateUpdate struct {
	// Flow identifies the flowlet.
	Flow FlowID
	// Src is the sending server's index (the notification's recipient).
	Src int
	// Rate is the newly allocated rate in bits per second.
	Rate float64
	// Slot is the caller-assigned slot of the flow (see
	// Allocator.SetFlowSlot), 0 when none was assigned. It lets a caller
	// that keeps per-flow state in dense arrays reach it without a lookup.
	Slot int32
}

// TrafficStats accumulates control-plane traffic volume (§6.4).
type TrafficStats struct {
	// ToAllocatorBytes counts bytes sent from servers to the allocator
	// (flowlet start and end notifications).
	ToAllocatorBytes int64
	// FromAllocatorBytes counts bytes sent from the allocator to servers
	// (rate updates).
	FromAllocatorBytes int64
	// StartNotifications and EndNotifications count flowlet events.
	StartNotifications int64
	EndNotifications   int64
	// RateUpdatesSent counts rate-update messages actually sent (i.e.
	// changes exceeding the notification threshold).
	RateUpdatesSent int64
	// RateUpdatesSuppressed counts rate changes below the threshold that
	// did not generate a notification.
	RateUpdatesSuppressed int64
	// Iterations counts optimizer iterations executed.
	Iterations int64
}

// Allocator is Flowtune's centralized rate allocator. It is not safe for
// concurrent use; the multicore optimizer in ParallelAllocator parallelizes a
// single logical iteration internally.
type Allocator struct {
	cfg  Config
	topo *topology.Topology
	// routes memoizes path computation so repeated flowlet starts between
	// the same endpoints (with the same ECMP hash class) never re-route.
	routes *topology.RouteCache

	problem   num.Problem
	state     *num.State
	flows     []flowState
	indexByID map[FlowID]int

	// effectiveCapacities are link capacities scaled down by the update
	// threshold so links are not over-utilized between notifications.
	effectiveCapacities []float64

	normalized []float64
	updates    []RateUpdate // reused across Iterate calls
	stats      TrafficStats

	// failed models allocator failure for fault-tolerance tests: a failed
	// allocator stops producing updates until Recover is called.
	failed bool
}

// NewAllocator creates an allocator for the given topology.
func NewAllocator(cfg Config) (*Allocator, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	topo := cfg.Topology
	caps := topo.Capacities()
	eff := make([]float64, len(caps))
	for i, c := range caps {
		eff[i] = c * (1 - cfg.UpdateThreshold)
	}
	a := &Allocator{
		cfg:                 cfg,
		topo:                topo,
		routes:              topology.NewRouteCache(topo),
		indexByID:           make(map[FlowID]int),
		effectiveCapacities: eff,
	}
	a.problem.Capacities = eff
	// An endpoint cannot send faster than its NIC; capping per-flow rates
	// here keeps transient over-allocations physical.
	a.problem.MaxFlowRate = topo.Config().LinkCapacity
	a.state = num.NewState(&a.problem)
	return a, nil
}

// Config returns the allocator's effective configuration.
func (a *Allocator) Config() Config { return a.cfg }

// NumFlows returns the number of currently registered flowlets.
func (a *Allocator) NumFlows() int { return len(a.flows) }

// Stats returns a snapshot of accumulated control-traffic statistics.
func (a *Allocator) Stats() TrafficStats { return a.stats }

// ResetStats zeroes the traffic statistics (used between experiment warmup
// and measurement phases).
func (a *Allocator) ResetStats() { a.stats = TrafficStats{} }

// FlowletStart registers a new flowlet from server src to server dst with the
// given weight (1 for plain proportional fairness). It corresponds to a
// flowlet-start notification arriving at the allocator.
func (a *Allocator) FlowletStart(id FlowID, src, dst int, weight float64) error {
	return a.FlowletStartSized(id, src, dst, weight, 0)
}

// FlowletStartSized is FlowletStart carrying the endpoint's flowlet-size
// hint in bytes (0 = unknown). The hint is recorded in the flow metadata and
// surfaced by LiveFlows; it does not affect allocation.
func (a *Allocator) FlowletStartSized(id FlowID, src, dst int, weight float64, size int64) error {
	if _, ok := a.indexByID[id]; ok {
		return fmt.Errorf("core: flowlet %d already registered", id)
	}
	if weight <= 0 {
		weight = 1
	}
	// Path selection mirrors ECMP: hash the flow ID over the spines so the
	// allocator and the network agree on paths (§7).
	route, err := a.routes.Route(src, dst, int(id))
	if err != nil {
		return fmt.Errorf("core: flowlet %d: %w", id, err)
	}
	links := make([]int32, len(route))
	for i, l := range route {
		links[i] = int32(l)
	}
	idx := len(a.flows)
	a.flows = append(a.flows, flowState{id: id, src: src, dst: dst, weight: weight, size: size})
	a.indexByID[id] = idx
	// Flow weights are scaled by the link capacity so optimal prices are
	// O(1), the same scale they are initialized to. Proportional fairness
	// is unaffected by a uniform scaling of weights. AppendFlow keeps the
	// compiled CSR index in sync incrementally.
	a.problem.AppendFlow(num.Flow{
		Route: links,
		Util:  num.LogUtility{W: weight * a.topo.Config().LinkCapacity},
	})
	a.state.Resize(len(a.problem.Flows))
	a.stats.StartNotifications++
	a.stats.ToAllocatorBytes += FlowletStartBytes + perMessageOverheadBytes
	return nil
}

// SetFlowSlot attaches a caller-owned dense index to a registered flowlet.
// The allocator carries it with the flow through swap-removals and echoes it
// in every RateUpdate for the flow.
func (a *Allocator) SetFlowSlot(id FlowID, slot int32) error {
	idx, ok := a.indexByID[id]
	if !ok {
		return fmt.Errorf("core: flowlet %d is not registered", id)
	}
	a.flows[idx].slot = slot
	return nil
}

// FlowletEnd removes a flowlet. It corresponds to a flowlet-end notification.
func (a *Allocator) FlowletEnd(id FlowID) error {
	idx, ok := a.indexByID[id]
	if !ok {
		return fmt.Errorf("core: flowlet %d is not registered", id)
	}
	last := len(a.flows) - 1
	if idx != last {
		a.flows[idx] = a.flows[last]
		a.state.Rates[idx] = a.state.Rates[last]
		a.indexByID[a.flows[idx].id] = idx
	}
	a.flows = a.flows[:last]
	// RemoveFlowSwap applies the same swap-delete to the problem and its
	// compiled CSR index.
	a.problem.RemoveFlowSwap(idx)
	a.state.Resize(last)
	delete(a.indexByID, id)
	a.stats.EndNotifications++
	a.stats.ToAllocatorBytes += FlowletEndBytes + perMessageOverheadBytes
	return nil
}

// HasFlow reports whether a flowlet is currently registered.
func (a *Allocator) HasFlow(id FlowID) bool {
	_, ok := a.indexByID[id]
	return ok
}

// LiveFlows returns the registered flowlets in the allocator's internal
// order — the canonical order rates are reported in. Replaying the result
// through FlowletStart on a fresh allocator with the same configuration
// reproduces this allocator's flow and CSR layout exactly, which is what
// flow-state snapshots and shard takeover rely on (see internal/server).
// The record type is shared with ParallelAllocator.LiveFlows.
func (a *Allocator) LiveFlows() []ParallelFlow {
	out := make([]ParallelFlow, len(a.flows))
	for i, f := range a.flows {
		out[i] = ParallelFlow{ID: f.id, Src: f.src, Dst: f.dst, Weight: f.weight, SizeHint: f.size}
	}
	return out
}

// SetLinkCapacity replaces one link's raw capacity with immediate effect:
// the effective (headroom-scaled) capacity is updated in place and the next
// Iterate re-prices the link against it. Nothing is rebuilt — the compiled
// CSR, registered flows, prices and rates all survive — so a capacity change
// mid-run costs exactly one ordinary iteration. Capacity must be positive
// and finite; model a dead link as a tiny fraction of its former capacity.
func (a *Allocator) SetLinkCapacity(l topology.LinkID, capacity float64) error {
	if l < 0 || int(l) >= a.topo.NumLinks() {
		return fmt.Errorf("core: SetLinkCapacity link %d out of range (%d links)", l, a.topo.NumLinks())
	}
	// problem.Capacities aliases effectiveCapacities, so the validated write
	// below is visible to the solver immediately.
	return a.problem.SetCapacity(int(l), capacity*(1-a.cfg.UpdateThreshold))
}

// Fail simulates an allocator failure (§2, fault tolerance): the allocator
// stops iterating and produces no updates until Recover is called. Endpoints
// keep their previously allocated rates and fall back to their own congestion
// control.
func (a *Allocator) Fail() { a.failed = true }

// Recover restores a failed allocator. Previously learned prices are kept, so
// allocations resume close to where they left off.
func (a *Allocator) Recover() { a.failed = false }

// Failed reports whether the allocator is currently failed.
func (a *Allocator) Failed() bool { return a.failed }

// Iterate runs one allocator iteration: a NED step over the registered flows,
// normalization, and threshold-based rate-update generation. It returns the
// rate updates that would be sent to endpoints this iteration. The returned
// slice is reused across calls and is only valid until the next call.
func (a *Allocator) Iterate() []RateUpdate {
	if a.failed || len(a.flows) == 0 {
		return nil
	}
	a.stats.Iterations++
	a.cfg.Solver.Step(&a.problem, a.state)
	a.normalized = a.cfg.Normalizer.Normalize(&a.problem, a.state.Rates, a.normalized)

	updates := a.updates[:0]
	thr := a.cfg.UpdateThreshold
	for i := range a.flows {
		rate := a.normalized[i]
		f := &a.flows[i]
		if SignificantRateChange(f.lastNotified, rate, thr) {
			f.lastNotified = rate
			updates = append(updates, RateUpdate{Flow: f.id, Src: f.src, Rate: rate, Slot: f.slot})
			a.stats.RateUpdatesSent++
			a.stats.FromAllocatorBytes += RateUpdateBytes + perMessageOverheadBytes
		} else {
			a.stats.RateUpdatesSuppressed++
		}
	}
	a.updates = updates
	return updates
}

// SignificantRateChange reports whether a rate change from old to new
// exceeds the relative notification threshold. It is the single definition
// of the update-suppression rule (§6.4), shared by this allocator and the
// daemon's engines so they can never drift apart.
func SignificantRateChange(old, new, threshold float64) bool {
	if old == 0 {
		return new != 0
	}
	return math.Abs(new-old) > threshold*old
}

// Rate returns the current normalized rate of a flowlet (the value most
// recently computed by Iterate), or 0 if the flowlet is unknown or no
// iteration has run since it was registered.
func (a *Allocator) Rate(id FlowID) float64 {
	idx, ok := a.indexByID[id]
	if !ok || idx >= len(a.normalized) {
		return 0
	}
	return a.normalized[idx]
}

// Rates returns the normalized rates of all registered flowlets keyed by
// flowlet ID.
func (a *Allocator) Rates() map[FlowID]float64 {
	out := make(map[FlowID]float64, len(a.flows))
	for i, f := range a.flows {
		if i < len(a.normalized) {
			out[f.id] = a.normalized[i]
		}
	}
	return out
}

// RawRates returns the optimizer's un-normalized rates keyed by flowlet ID
// (used by the normalization experiments).
func (a *Allocator) RawRates() map[FlowID]float64 {
	out := make(map[FlowID]float64, len(a.flows))
	for i, f := range a.flows {
		if i < len(a.state.Rates) {
			out[f.id] = a.state.Rates[i]
		}
	}
	return out
}

// Problem exposes the allocator's current NUM problem (for experiments that
// need reference optimal allocations). The returned problem aliases internal
// state and must not be modified.
func (a *Allocator) Problem() *num.Problem { return &a.problem }

// State exposes the allocator's solver state (prices and raw rates). The
// returned state aliases internal state and must not be modified.
func (a *Allocator) State() *num.State { return a.state }

// OverAllocation returns the total amount by which the optimizer's raw
// (pre-normalization) rates exceed link capacities, in bits per second.
func (a *Allocator) OverAllocation() float64 {
	if len(a.flows) == 0 {
		return 0
	}
	return num.OverAllocation(&a.problem, a.state.Rates)
}

// UpdateTrafficFractions returns control traffic to and from the allocator as
// fractions of total network capacity, given the wall-clock duration the
// accumulated stats cover. Total network capacity follows the paper's
// convention: the sum of all server link capacities.
func (a *Allocator) UpdateTrafficFractions(duration float64) (toAllocator, fromAllocator float64) {
	if duration <= 0 {
		return 0, 0
	}
	capacityBits := float64(a.topo.NumServers()) * a.topo.Config().LinkCapacity
	toAllocator = float64(a.stats.ToAllocatorBytes*8) / duration / capacityBits
	fromAllocator = float64(a.stats.FromAllocatorBytes*8) / duration / capacityBits
	return toAllocator, fromAllocator
}
