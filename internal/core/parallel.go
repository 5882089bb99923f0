package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/affinity"
	"repro/internal/num"
	"repro/internal/topology"
)

// ParallelFlow is one flow handed to the multicore allocator.
type ParallelFlow struct {
	// ID is an opaque identifier reported back with rates.
	ID FlowID
	// Src and Dst are server indices.
	Src, Dst int
	// Weight is the log-utility weight (1 when zero).
	Weight float64
	// SizeHint is the endpoint's flowlet-size hint in bytes (0 = unknown);
	// solvers ignore it.
	SizeHint int64
}

// flowBlock is the state owned by one worker: its flows in a flat CSR layout
// (no per-flow slices — link positions for all flows live concatenated in two
// arenas, mirroring num.Compiled), its local copies of the two LinkBlocks it
// updates, and scratch space for aggregation.
//
// The CSR is maintained incrementally across flowlet churn: adds append to
// the arenas, removes swap-delete and leave holes, and an arena is compacted
// (into a reused scratch buffer) once holes outnumber live entries. Because
// of the holes the layout keeps explicit per-flow lengths instead of the
// textbook n+1 offsets array — the same scheme num.Compiled uses.
type flowBlock struct {
	srcBlock, dstBlock int

	// Per-flow state, parallel slices indexed by block-local flow index.
	// weights hold the capacity-scaled value the hot loop consumes;
	// baseWeights keep the caller's original weight so LiveFlows can
	// reproduce registrations bit-exactly (scaling is not a reversible
	// float operation for arbitrary weights).
	ids         []FlowID
	srcs        []int32
	dsts        []int32
	weights     []float64
	baseWeights []float64
	sizes       []int64
	rates       []float64
	// lastNotified is the rate most recently reported through
	// AppendUpdates. Carrying it alongside the CSR (and applying the same
	// swap-deletes to it) lets the daemon engine's update walk run on
	// dense arrays with no per-flow map lookups.
	lastNotified []float64
	// slots are the caller-assigned flow slots (SetFlowSlot), echoed in
	// AppendUpdates and moved with their flows on swap-deletes.
	slots []int32

	// CSR link-position arenas: flow i touches positions
	// upIdx[upOff[i]:upOff[i]+upLen[i]] of the source block's upward
	// LinkBlock and downIdx[downOff[i]:downOff[i]+downLen[i]] of the
	// destination block's downward LinkBlock. Positions are resolved from
	// the topology once, when the flow is added; churn of other flows
	// never re-routes this one.
	upIdx, upOff, upLen       []int32
	downIdx, downOff, downLen []int32
	upDead, downDead          int     // arena entries orphaned by swap-deletes
	upScratch, downScratch    []int32 // ping-pong buffers for compaction

	// Local copies of link state (§5): prices are copied in during the
	// distribute step; loads and Hessian diagonals are accumulated locally
	// during the rate-update step and merged during aggregation. The four
	// accumulators are padded to whole cache lines (see paddedFloats) so
	// concurrent writers in the rate-update phase never false-share.
	upPrice, downPrice []float64
	upLoad, downLoad   []float64
	upHdiag, downHdiag []float64
}

// numFlows returns the number of flows loaded into the block.
func (fb *flowBlock) numFlows() int { return len(fb.ids) }

// addFlow appends one flow whose up/down link positions have already been
// written to the arena tails (upIdx/downIdx grew by upN/downN entries).
func (fb *flowBlock) addFlow(f ParallelFlow, weight, baseWeight float64, upN, downN int) {
	fb.ids = append(fb.ids, f.ID)
	fb.srcs = append(fb.srcs, int32(f.Src))
	fb.dsts = append(fb.dsts, int32(f.Dst))
	fb.weights = append(fb.weights, weight)
	fb.baseWeights = append(fb.baseWeights, baseWeight)
	fb.sizes = append(fb.sizes, f.SizeHint)
	fb.rates = append(fb.rates, 0)
	fb.lastNotified = append(fb.lastNotified, 0)
	fb.slots = append(fb.slots, 0)
	fb.upOff = append(fb.upOff, int32(len(fb.upIdx)-upN))
	fb.upLen = append(fb.upLen, int32(upN))
	fb.downOff = append(fb.downOff, int32(len(fb.downIdx)-downN))
	fb.downLen = append(fb.downLen, int32(downN))
}

// removeSwap removes flow i by moving the block's last flow into its slot,
// leaving the removed flow's arena entries as holes. It returns the ID of the
// flow that moved into slot i (the removed flow itself when it was last) so
// the allocator can fix its locator.
func (fb *flowBlock) removeSwap(i int) FlowID {
	last := len(fb.ids) - 1
	fb.upDead += int(fb.upLen[i])
	fb.downDead += int(fb.downLen[i])
	if i != last {
		fb.ids[i] = fb.ids[last]
		fb.srcs[i] = fb.srcs[last]
		fb.dsts[i] = fb.dsts[last]
		fb.weights[i] = fb.weights[last]
		fb.baseWeights[i] = fb.baseWeights[last]
		fb.sizes[i] = fb.sizes[last]
		fb.rates[i] = fb.rates[last]
		fb.lastNotified[i] = fb.lastNotified[last]
		fb.slots[i] = fb.slots[last]
		fb.upOff[i] = fb.upOff[last]
		fb.upLen[i] = fb.upLen[last]
		fb.downOff[i] = fb.downOff[last]
		fb.downLen[i] = fb.downLen[last]
	}
	moved := fb.ids[last]
	fb.ids = fb.ids[:last]
	fb.srcs = fb.srcs[:last]
	fb.dsts = fb.dsts[:last]
	fb.weights = fb.weights[:last]
	fb.baseWeights = fb.baseWeights[:last]
	fb.sizes = fb.sizes[:last]
	fb.rates = fb.rates[:last]
	fb.lastNotified = fb.lastNotified[:last]
	fb.slots = fb.slots[:last]
	fb.upOff = fb.upOff[:last]
	fb.upLen = fb.upLen[:last]
	fb.downOff = fb.downOff[:last]
	fb.downLen = fb.downLen[:last]
	if fb.upDead > len(fb.upIdx)-fb.upDead && fb.upDead > num.CompactMinDead {
		fb.upIdx, fb.upScratch, fb.upDead = num.CompactArena(fb.upIdx, fb.upScratch, fb.upOff, fb.upLen)
	}
	if fb.downDead > len(fb.downIdx)-fb.downDead && fb.downDead > num.CompactMinDead {
		fb.downIdx, fb.downScratch, fb.downDead = num.CompactArena(fb.downIdx, fb.downScratch, fb.downOff, fb.downLen)
	}
	if i != last {
		return fb.ids[i]
	}
	return moved
}

// reset clears all per-flow state, keeping capacity.
func (fb *flowBlock) reset() {
	fb.ids = fb.ids[:0]
	fb.srcs = fb.srcs[:0]
	fb.dsts = fb.dsts[:0]
	fb.weights = fb.weights[:0]
	fb.baseWeights = fb.baseWeights[:0]
	fb.sizes = fb.sizes[:0]
	fb.rates = fb.rates[:0]
	fb.lastNotified = fb.lastNotified[:0]
	fb.slots = fb.slots[:0]
	fb.upIdx = fb.upIdx[:0]
	fb.upOff = fb.upOff[:0]
	fb.upLen = fb.upLen[:0]
	fb.downIdx = fb.downIdx[:0]
	fb.downOff = fb.downOff[:0]
	fb.downLen = fb.downLen[:0]
	fb.upDead = 0
	fb.downDead = 0
}

// reallocAccumulators replaces the block's price/load/Hessian arrays with
// fresh allocations holding the same contents. A pinned worker calls it from
// its own OS thread before the first barrier, so first-touch places the
// merge-phase working set on the worker's local memory node; the barrier's
// release then publishes the new slice headers to the merge partners.
func (fb *flowBlock) reallocAccumulators() {
	fb.upPrice = repadded(fb.upPrice)
	fb.downPrice = repadded(fb.downPrice)
	fb.upLoad = repadded(fb.upLoad)
	fb.downLoad = repadded(fb.downLoad)
	fb.upHdiag = repadded(fb.upHdiag)
	fb.downHdiag = repadded(fb.downHdiag)
}

// repadded copies src into a fresh cache-line-padded allocation.
func repadded(src []float64) []float64 {
	dst := paddedFloats(len(src))
	copy(dst, src)
	return dst
}

// linkBlockState is the authoritative state of one LinkBlock (prices persist
// across iterations; capacities are fixed).
type linkBlockState struct {
	links []topology.LinkID
	price []float64
	cap   []float64
	// posOf maps LinkID to its position within the block (-1 when the link
	// is not in the block); a dense array indexed by LinkID replaces the
	// map lookup on the flow-add path.
	posOf []int32
	// ext and extH, when non-nil, carry remote shards' load and
	// Hessian-diagonal contributions per block position (see
	// ParallelAllocator.SetExternalLoads). The price-update phase folds
	// them into the merged accumulators exactly as the sequential NED
	// solver folds num.Problem.ExternalLoads, and the normalize phase
	// counts ext toward link utilization.
	ext, extH []float64
	// pinned, when non-nil, holds imported remote-owner prices per block
	// position (-1 = locally priced); re-imposed after every price update,
	// mirroring num.Problem.PinnedPrices.
	pinned []float64
}

func newLinkBlockState(t *topology.Topology, links []topology.LinkID, headroom float64) *linkBlockState {
	s := &linkBlockState{
		links: links,
		price: make([]float64, len(links)),
		cap:   make([]float64, len(links)),
		posOf: make([]int32, t.NumLinks()),
	}
	for i := range s.posOf {
		s.posOf[i] = -1
	}
	for i, l := range links {
		s.price[i] = 1
		s.cap[i] = t.Link(l).Capacity * (1 - headroom)
		s.posOf[l] = int32(i)
	}
	return s
}

// ParallelConfig configures the multicore allocator.
type ParallelConfig struct {
	// Topology is the fabric to schedule. Required.
	Topology *topology.Topology
	// Blocks is the number of rack blocks n; the allocator uses n²
	// FlowBlocks, each handled by one worker goroutine (the paper's 4-,
	// 16- and 64-core configurations correspond to 2, 4 and 8 blocks).
	Blocks int
	// Gamma is NED's step size (default 1).
	Gamma float64
	// Headroom is the fraction of link capacity withheld (the update
	// threshold of the sequential allocator); default 0.
	Headroom float64
	// Normalize enables the parallel F-NORM pass after the price update.
	Normalize bool
	// PinWorkers pins each FlowBlock worker's OS thread to a NUMA socket
	// (round-robin by worker index) and re-allocates the block's
	// accumulator arrays from the pinned thread, so first-touch places the
	// merge-phase working set on the worker's local memory node. It is a
	// no-op unless the binary is built with the `numa` tag on linux (see
	// internal/affinity).
	PinWorkers bool
}

// flowLoc locates a registered flow: the FlowBlock that holds it and its
// block-local index. The index moves under swap-deletes; FlowletEnd keeps the
// locator map consistent.
type flowLoc struct {
	fb  int32
	idx int32
}

// ParallelAllocator is the FlowBlock/LinkBlock multicore implementation of
// the NED optimizer (§5). Flows are partitioned by (source block, destination
// block) into FlowBlocks; each FlowBlock worker updates only its own local
// copies of the source block's upward LinkBlock and the destination block's
// downward LinkBlock, eliminating concurrent writes. Local copies are then
// merged into authoritative copies in log2(n) pairwise aggregation rounds
// (Figure 3), prices are updated on the authoritative copies, and the new
// prices are distributed back to the FlowBlocks.
//
// The flow set is maintained incrementally: FlowletStart and FlowletEnd are
// O(route length) operations on the owning FlowBlock's CSR arenas, so flowlet
// churn between iterations never rebuilds or re-routes the rest of the flow
// set. SetFlows remains as the bulk-load path.
type ParallelAllocator struct {
	cfg  ParallelConfig
	topo *topology.Topology
	part *topology.BlockPartition
	// routes memoizes path computation; with a warm cache FlowletStart is
	// allocation-free, which BenchmarkParallelChurn and
	// TestParallelChurnAllocFree pin.
	routes *topology.RouteCache

	numBlocks int
	gamma     float64
	maxRate   float64 // per-flow rate cap (the server NIC line rate)
	linkCap   float64 // weight scale (see FlowletStart)

	up   []*linkBlockState // authoritative upward LinkBlocks, indexed by block
	down []*linkBlockState // authoritative downward LinkBlocks, indexed by block

	// Dense LinkID→owning-LinkBlock lookup for the boundary API (every
	// fabric link lives in exactly one LinkBlock; allocator uplinks in
	// none, so their ownerLB entry is nil). ownerPos is the link's position
	// within the block, ownerBlk the block index, ownerIsUp whether it is
	// the block's upward half.
	ownerLB   []*linkBlockState
	ownerPos  []int32
	ownerBlk  []int32
	ownerIsUp []bool

	// fbs holds the FlowBlocks in Morton (bit-interleaved) order of their
	// (srcBlock, dstBlock) coordinates, so the partners of the early
	// pairwise merge rounds sit next to each other — both in the slice and
	// in the heap, since their accumulator arenas are allocated in the
	// same order. fbAt is the row-major lookup: fbAt[sb*numBlocks+db].
	fbs  []*flowBlock
	fbAt []*flowBlock

	// loc locates every registered flow for FlowletEnd; it is touched only
	// on churn, never in the iteration hot path.
	loc map[FlowID]flowLoc

	// Worker pool: one worker per FlowBlock. The outer barrier (workers +
	// coordinator) marks the start and end of an iteration; the inner
	// barrier (workers only) separates the phases within an iteration.
	barrier *barrier
	inner   *barrier
	wg      sync.WaitGroup
	stop    atomic.Bool
	started bool

	numFlows int
}

// NewParallelAllocator builds the multicore allocator.
func NewParallelAllocator(cfg ParallelConfig) (*ParallelAllocator, error) {
	if cfg.Topology == nil {
		return nil, fmt.Errorf("core: ParallelConfig.Topology is required")
	}
	if cfg.Blocks <= 0 {
		return nil, fmt.Errorf("core: ParallelConfig.Blocks must be positive, got %d", cfg.Blocks)
	}
	if cfg.Blocks&(cfg.Blocks-1) != 0 {
		return nil, fmt.Errorf("core: ParallelConfig.Blocks must be a power of two, got %d", cfg.Blocks)
	}
	part, err := topology.NewBlockPartition(cfg.Topology, cfg.Blocks)
	if err != nil {
		return nil, err
	}
	gamma := cfg.Gamma
	if gamma == 0 {
		gamma = 1
	}
	p := &ParallelAllocator{
		cfg:       cfg,
		topo:      cfg.Topology,
		part:      part,
		routes:    topology.NewRouteCache(cfg.Topology),
		numBlocks: cfg.Blocks,
		gamma:     gamma,
		maxRate:   cfg.Topology.Config().LinkCapacity,
		linkCap:   cfg.Topology.Config().LinkCapacity,
		loc:       make(map[FlowID]flowLoc),
	}
	for b := 0; b < cfg.Blocks; b++ {
		p.up = append(p.up, newLinkBlockState(cfg.Topology, part.UpwardLinkBlock(b), cfg.Headroom))
		p.down = append(p.down, newLinkBlockState(cfg.Topology, part.DownwardLinkBlock(b), cfg.Headroom))
	}
	p.ownerLB = make([]*linkBlockState, cfg.Topology.NumLinks())
	p.ownerPos = make([]int32, cfg.Topology.NumLinks())
	p.ownerBlk = make([]int32, cfg.Topology.NumLinks())
	p.ownerIsUp = make([]bool, cfg.Topology.NumLinks())
	for b := 0; b < cfg.Blocks; b++ {
		for i, l := range p.up[b].links {
			p.ownerLB[l], p.ownerPos[l], p.ownerBlk[l], p.ownerIsUp[l] = p.up[b], int32(i), int32(b), true
		}
		for i, l := range p.down[b].links {
			p.ownerLB[l], p.ownerPos[l], p.ownerBlk[l], p.ownerIsUp[l] = p.down[b], int32(i), int32(b), false
		}
	}
	n := cfg.Blocks
	p.fbs = make([]*flowBlock, n*n)
	p.fbAt = make([]*flowBlock, n*n)
	// Allocate the FlowBlocks (and their accumulator arenas) in Morton
	// order so round-1 merge partners get adjacent heap placements.
	for m := 0; m < n*n; m++ {
		sb, db := mortonCoords(m, n)
		fb := &flowBlock{
			srcBlock:  sb,
			dstBlock:  db,
			upPrice:   paddedFloats(len(p.up[sb].links)),
			downPrice: paddedFloats(len(p.down[db].links)),
			upLoad:    paddedFloats(len(p.up[sb].links)),
			downLoad:  paddedFloats(len(p.down[db].links)),
			upHdiag:   paddedFloats(len(p.up[sb].links)),
			downHdiag: paddedFloats(len(p.down[db].links)),
		}
		copy(fb.upPrice, p.up[sb].price)
		copy(fb.downPrice, p.down[db].price)
		p.fbs[m] = fb
		p.fbAt[sb*n+db] = fb
	}
	return p, nil
}

// cacheLineFloats is the number of float64 words per 64-byte cache line.
const cacheLineFloats = 8

// paddedFloats allocates a float64 slice of length n whose backing array
// spans whole cache lines, so per-FlowBlock accumulators written concurrently
// in the rate-update phase never share a line with another block's (Go's size
// classes place multiple-of-64-byte allocations on 64-byte boundaries).
func paddedFloats(n int) []float64 {
	padded := (n + cacheLineFloats - 1) &^ (cacheLineFloats - 1)
	if padded == 0 {
		padded = cacheLineFloats
	}
	return make([]float64, n, padded)
}

// mortonCoords decodes Morton index m into (srcBlock, dstBlock) for n blocks:
// dstBlock occupies the even bits, srcBlock the odd bits. With this
// interleaving the round-1 up-merge partner (sb, db±1) is the neighbouring
// slot and the round-1 down-merge partner (sb±1, db) is two slots away.
func mortonCoords(m, n int) (sb, db int) {
	for bit := 0; 1<<bit < n; bit++ {
		db |= (m >> (2 * bit) & 1) << bit
		sb |= (m >> (2*bit + 1) & 1) << bit
	}
	return sb, db
}

// NumWorkers returns the number of worker goroutines (FlowBlocks).
func (p *ParallelAllocator) NumWorkers() int { return len(p.fbs) }

// NumFlows returns the number of loaded flows.
func (p *ParallelAllocator) NumFlows() int { return p.numFlows }

// AggregationSteps returns the number of pairwise merge rounds per iteration.
func (p *ParallelAllocator) AggregationSteps() int { return p.part.AggregationSteps() }

// HasFlow reports whether a flowlet is currently registered.
func (p *ParallelAllocator) HasFlow(id FlowID) bool {
	_, ok := p.loc[id]
	return ok
}

// FlowletStart registers one new flowlet, resolving its route to LinkBlock
// positions once and appending them to the owning FlowBlock's CSR arenas —
// an O(route length) operation that leaves every other flow untouched. It may
// only be called while no Iterate call is in flight.
func (p *ParallelAllocator) FlowletStart(id FlowID, src, dst int, weight float64) error {
	return p.FlowletStartSized(id, src, dst, weight, 0)
}

// FlowletStartSized is FlowletStart carrying the endpoint's flowlet-size
// hint in bytes (0 = unknown). The hint is recorded in the flow metadata and
// surfaced by LiveFlows; it does not affect allocation.
func (p *ParallelAllocator) FlowletStartSized(id FlowID, src, dst int, weight float64, size int64) error {
	if _, dup := p.loc[id]; dup {
		return fmt.Errorf("core: flowlet %d already registered", id)
	}
	return p.addFlow(ParallelFlow{ID: id, Src: src, Dst: dst, Weight: weight, SizeHint: size})
}

// addFlow routes and appends one flow (shared by FlowletStart and SetFlows;
// the caller has already rejected duplicates).
func (p *ParallelAllocator) addFlow(f ParallelFlow) error {
	route, err := p.routes.Route(f.Src, f.Dst, int(f.ID))
	if err != nil {
		return fmt.Errorf("core: flow %d: %w", f.ID, err)
	}
	sb := p.part.BlockOfServer(f.Src)
	db := p.part.BlockOfServer(f.Dst)
	fbi := mortonIndex(sb, db, p.numBlocks)
	fb := p.fbs[fbi]
	upStart, downStart := len(fb.upIdx), len(fb.downIdx)
	for _, l := range route {
		if pos := p.up[sb].posOf[l]; pos >= 0 {
			fb.upIdx = append(fb.upIdx, pos)
			continue
		}
		if pos := p.down[db].posOf[l]; pos >= 0 {
			fb.downIdx = append(fb.downIdx, pos)
			continue
		}
		fb.upIdx = fb.upIdx[:upStart]
		fb.downIdx = fb.downIdx[:downStart]
		return fmt.Errorf("core: flow %d: link %d is in neither its upward nor its downward LinkBlock", f.ID, l)
	}
	weight := f.Weight
	if weight == 0 {
		weight = 1
	}
	// Weights are scaled by link capacity (as in the sequential allocator)
	// so prices stay O(1).
	fb.addFlow(f, weight*p.linkCap, weight, len(fb.upIdx)-upStart, len(fb.downIdx)-downStart)
	p.loc[f.ID] = flowLoc{fb: int32(fbi), idx: int32(fb.numFlows() - 1)}
	p.numFlows++
	return nil
}

// mortonIndex interleaves the bits of (srcBlock, dstBlock): the inverse of
// mortonCoords.
func mortonIndex(sb, db, n int) int {
	m := 0
	for bit := 0; 1<<bit < n; bit++ {
		m |= (db >> bit & 1) << (2 * bit)
		m |= (sb >> bit & 1) << (2*bit + 1)
	}
	return m
}

// SetFlowSlot attaches a caller-owned dense index to a registered flowlet;
// AppendUpdates echoes it in RateUpdate.Slot. It may only be called while no
// Iterate call is in flight.
func (p *ParallelAllocator) SetFlowSlot(id FlowID, slot int32) error {
	l, ok := p.loc[id]
	if !ok {
		return fmt.Errorf("core: flowlet %d is not registered", id)
	}
	p.fbs[l.fb].slots[l.idx] = slot
	return nil
}

// FlowletEnd removes a flowlet by swap-deleting it from its FlowBlock — an
// O(1) operation (plus an amortized arena compaction once holes outnumber
// live entries). It may only be called while no Iterate call is in flight.
func (p *ParallelAllocator) FlowletEnd(id FlowID) error {
	l, ok := p.loc[id]
	if !ok {
		return fmt.Errorf("core: flowlet %d is not registered", id)
	}
	fb := p.fbs[l.fb]
	moved := fb.removeSwap(int(l.idx))
	if moved != id {
		p.loc[moved] = flowLoc{fb: l.fb, idx: l.idx}
	}
	delete(p.loc, id)
	p.numFlows--
	return nil
}

// SetLinkCapacity replaces one link's raw capacity in every LinkBlock that
// covers it (a link appears in at most one upward and one downward block's
// authoritative copy). The stored value is headroom-scaled, matching
// construction, and the next Iterate's price-update phase reads it — no CSR
// rebuild, no price or rate loss. Like all mutators it may only be called
// while no Iterate is in flight.
func (p *ParallelAllocator) SetLinkCapacity(l topology.LinkID, capacity float64) error {
	if l < 0 || int(l) >= p.topo.NumLinks() {
		return fmt.Errorf("core: SetLinkCapacity link %d out of range (%d links)", l, p.topo.NumLinks())
	}
	if capacity <= 0 || math.IsNaN(capacity) || math.IsInf(capacity, 0) {
		return fmt.Errorf("core: SetLinkCapacity link %d: invalid capacity %g", l, capacity)
	}
	eff := capacity * (1 - p.cfg.Headroom)
	found := false
	for _, lb := range p.up {
		if pos := lb.posOf[l]; pos >= 0 {
			lb.cap[pos] = eff
			found = true
		}
	}
	for _, lb := range p.down {
		if pos := lb.posOf[l]; pos >= 0 {
			lb.cap[pos] = eff
			found = true
		}
	}
	if !found {
		return fmt.Errorf("core: SetLinkCapacity link %d is not covered by any LinkBlock", l)
	}
	return nil
}

// SetFlows replaces the allocator's flow set in bulk, re-routing every flow.
// Link prices persist across calls. Incremental churn should use
// FlowletStart/FlowletEnd instead; SetFlows remains as the bulk-load path.
// Flow IDs must be distinct. It may only be called while no Iterate call is
// in flight.
func (p *ParallelAllocator) SetFlows(flows []ParallelFlow) error {
	for _, fb := range p.fbs {
		fb.reset()
	}
	clear(p.loc)
	p.numFlows = 0
	for _, f := range flows {
		if _, dup := p.loc[f.ID]; dup {
			return fmt.Errorf("core: duplicate flow ID %d", f.ID)
		}
		if err := p.addFlow(f); err != nil {
			return err
		}
	}
	return nil
}

// LiveFlows returns the registered flows in the allocator's internal
// (FlowBlock-major) order — the canonical order in which rates are reported
// and loads are accumulated. Feeding the result to SetFlows on an allocator
// with the same configuration reproduces this allocator's layout exactly.
func (p *ParallelAllocator) LiveFlows() []ParallelFlow {
	out := make([]ParallelFlow, 0, p.numFlows)
	for _, fb := range p.fbs {
		for i, id := range fb.ids {
			out = append(out, ParallelFlow{
				ID:       id,
				Src:      int(fb.srcs[i]),
				Dst:      int(fb.dsts[i]),
				Weight:   fb.baseWeights[i],
				SizeHint: fb.sizes[i],
			})
		}
	}
	return out
}

// start launches the persistent worker goroutines on first use.
func (p *ParallelAllocator) start() {
	if p.started {
		return
	}
	p.started = true
	p.barrier = newBarrier(len(p.fbs) + 1) // workers + coordinator
	p.inner = newBarrier(len(p.fbs))       // workers only
	for w := range p.fbs {
		p.wg.Add(1)
		go p.worker(w)
	}
}

// Close shuts down the worker pool. The allocator cannot be used afterwards.
func (p *ParallelAllocator) Close() {
	if !p.started {
		return
	}
	p.stop.Store(true)
	p.barrier.wait() // release workers into the iteration; they observe stop
	p.wg.Wait()
	p.started = false
}

// Iterate runs one parallel NED iteration (rate update, aggregation, price
// update, distribution, and optionally F-NORM) and returns after all workers
// finish.
func (p *ParallelAllocator) Iterate() {
	p.start()
	p.barrier.wait() // release workers into the iteration
	p.barrier.wait() // wait for workers to finish the iteration
}

// worker is the body of one FlowBlock worker goroutine.
func (p *ParallelAllocator) worker(idx int) {
	defer p.wg.Done()
	fb := p.fbs[idx]
	if p.cfg.PinWorkers && affinity.Enabled() {
		// Pin before the first barrier: re-allocating the accumulators from
		// the pinned thread makes first-touch place them on the worker's
		// memory node, and the barrier's release publishes the new slice
		// headers to the merge partners that read them. The CSR churn
		// arenas stay coordinator-allocated (churn happens between
		// iterations, off the worker threads), a documented approximation.
		if _, err := affinity.PinWorker(idx); err == nil {
			fb.reallocAccumulators()
		}
	}
	n := p.numBlocks
	for {
		p.barrier.wait() // wait for Iterate (or Close)
		if p.stop.Load() {
			return
		}

		// Phase 1: rate update on local copies (Equation 3), accumulating
		// per-link loads and Hessian diagonals locally.
		p.rateUpdatePhase(fb)
		p.inner.wait()

		// Phase 2: log2(n) pairwise aggregation rounds. Upward LinkBlocks
		// are reduced across the destination-block dimension; downward
		// LinkBlocks across the source-block dimension (Figure 3). The
		// Morton layout of fbs makes the stride-1 partners heap
		// neighbours, so the early (widest) rounds stay local.
		for stride := 1; stride < n; stride *= 2 {
			if fb.dstBlock%(2*stride) == 0 && fb.dstBlock+stride < n {
				other := p.fbAt[fb.srcBlock*n+fb.dstBlock+stride]
				addInto(fb.upLoad, other.upLoad)
				addInto(fb.upHdiag, other.upHdiag)
			}
			if fb.srcBlock%(2*stride) == 0 && fb.srcBlock+stride < n {
				other := p.fbAt[(fb.srcBlock+stride)*n+fb.dstBlock]
				addInto(fb.downLoad, other.downLoad)
				addInto(fb.downHdiag, other.downHdiag)
			}
			p.inner.wait()
		}

		// Phase 3: price update (Equation 4) on the authoritative copies.
		// FlowBlock (b, 0) owns block b's upward LinkBlock; FlowBlock
		// (0, b) owns block b's downward LinkBlock.
		if fb.dstBlock == 0 {
			p.priceUpdatePhase(p.up[fb.srcBlock], fb.upLoad, fb.upHdiag)
		}
		if fb.srcBlock == 0 {
			p.priceUpdatePhase(p.down[fb.dstBlock], fb.downLoad, fb.downHdiag)
		}
		p.inner.wait()

		// Phase 4: distribute the new prices back to local copies.
		copy(fb.upPrice, p.up[fb.srcBlock].price)
		copy(fb.downPrice, p.down[fb.dstBlock].price)

		if p.cfg.Normalize {
			p.inner.wait()
			// Parallel F-NORM: each FlowBlock scales its flows by the
			// worst utilization ratio along their paths, computed from the
			// aggregated loads held by the LinkBlock owners.
			p.normalizePhase(fb)
		}

		p.barrier.wait() // iteration complete; coordinator resumes
	}
}

// rateUpdatePhase computes flow rates from the FlowBlock's local prices and
// accumulates loads and Hessian diagonals locally.
func (p *ParallelAllocator) rateUpdatePhase(fb *flowBlock) {
	for i := range fb.upLoad {
		fb.upLoad[i] = 0
		fb.upHdiag[i] = 0
	}
	for i := range fb.downLoad {
		fb.downLoad[i] = 0
		fb.downHdiag[i] = 0
	}
	for i := 0; i < fb.numFlows(); i++ {
		up := fb.upIdx[fb.upOff[i] : fb.upOff[i]+fb.upLen[i]]
		down := fb.downIdx[fb.downOff[i] : fb.downOff[i]+fb.downLen[i]]
		priceSum := 0.0
		for _, pos := range up {
			priceSum += fb.upPrice[pos]
		}
		for _, pos := range down {
			priceSum += fb.downPrice[pos]
		}
		if priceSum < minParallelPrice {
			priceSum = minParallelPrice
		}
		w := fb.weights[i]
		x := w / priceSum
		if x > p.maxRate {
			x = p.maxRate
		}
		d := -w / (priceSum * priceSum)
		fb.rates[i] = x
		for _, pos := range up {
			fb.upLoad[pos] += x
			fb.upHdiag[pos] += d
		}
		for _, pos := range down {
			fb.downLoad[pos] += x
			fb.downHdiag[pos] += d
		}
	}
}

// minParallelPrice mirrors the price floor of the sequential solver.
const minParallelPrice = 1e-12

// priceUpdatePhase applies NED's price update to one authoritative LinkBlock.
// External loads (remote shards' demand) are folded into the merged
// accumulators here — g is computed as (load − cap) + ext, exactly the
// sequential solver's operation order, so a boundary-exchanging shard stays
// bit-identical to the sequential engine — and pinned prices are re-imposed
// after the update, mirroring num's applyPins.
func (p *ParallelAllocator) priceUpdatePhase(lb *linkBlockState, load, hdiag []float64) {
	ext, extH, pinned := lb.ext, lb.extH, lb.pinned
	for i := range lb.price {
		g := load[i] - lb.cap[i]
		h := hdiag[i]
		if ext != nil {
			g += ext[i]
		}
		if extH != nil {
			h += extH[i]
		}
		if h == 0 {
			// Mirror the sequential solver: idle links decay toward zero.
			lb.price[i] *= 0.5
		} else {
			price := lb.price[i] - p.gamma*g/h
			if price < 0 {
				price = 0
			}
			lb.price[i] = price
		}
		if pinned != nil && pinned[i] >= 0 {
			lb.price[i] = pinned[i]
		}
	}
}

// normalizePhase applies F-NORM within a FlowBlock: each flow is scaled by
// the worst load/capacity ratio among the links it traverses. The aggregated
// loads live in the owner FlowBlocks (column 0 for upward, row 0 for
// downward), which this phase only reads. External loads count toward a
// link's utilization — as (load + ext) / cap, the sequential normalizer's
// operation order — so a boundary link crowded by remote traffic slows local
// flows just as local congestion would.
func (p *ParallelAllocator) normalizePhase(fb *flowBlock) {
	upOwner := p.fbAt[fb.srcBlock*p.numBlocks] // (srcBlock, 0)
	downOwner := p.fbAt[fb.dstBlock]           // (0, dstBlock)
	upCap := p.up[fb.srcBlock].cap
	downCap := p.down[fb.dstBlock].cap
	upExt := p.up[fb.srcBlock].ext
	downExt := p.down[fb.dstBlock].ext
	for i := 0; i < fb.numFlows(); i++ {
		worst := 1.0
		for _, pos := range fb.upIdx[fb.upOff[i] : fb.upOff[i]+fb.upLen[i]] {
			load := upOwner.upLoad[pos]
			if upExt != nil {
				load += upExt[pos]
			}
			if r := load / upCap[pos]; r > worst {
				worst = r
			}
		}
		for _, pos := range fb.downIdx[fb.downOff[i] : fb.downOff[i]+fb.downLen[i]] {
			load := downOwner.downLoad[pos]
			if downExt != nil {
				load += downExt[pos]
			}
			if r := load / downCap[pos]; r > worst {
				worst = r
			}
		}
		if worst > 1 {
			fb.rates[i] /= worst
		}
	}
}

// Rates returns the rates computed by the most recent Iterate call, keyed by
// flow ID.
func (p *ParallelAllocator) Rates() map[FlowID]float64 {
	out := make(map[FlowID]float64, p.numFlows)
	p.ForEachRate(func(id FlowID, rate float64) { out[id] = rate })
	return out
}

// ForEachRate calls fn with the most recently computed rate of every loaded
// flow, in FlowBlock order, without allocating. It may only be called while
// no Iterate is in flight.
func (p *ParallelAllocator) ForEachRate(fn func(FlowID, float64)) {
	for _, fb := range p.fbs {
		for i, id := range fb.ids {
			fn(id, fb.rates[i])
		}
	}
}

// AppendUpdates appends a RateUpdate for every flow whose rate changed
// significantly (per SignificantRateChange) since it was last reported,
// records the reported rates, and returns the extended slice. The walk runs
// over the dense per-FlowBlock arrays — no per-flow map lookups — and
// allocates nothing once buf has grown to the working-set size. It may only
// be called while no Iterate is in flight.
func (p *ParallelAllocator) AppendUpdates(threshold float64, buf []RateUpdate) []RateUpdate {
	for _, fb := range p.fbs {
		for i, id := range fb.ids {
			rate := fb.rates[i]
			if SignificantRateChange(fb.lastNotified[i], rate, threshold) {
				fb.lastNotified[i] = rate
				buf = append(buf, RateUpdate{Flow: id, Src: int(fb.srcs[i]), Rate: rate, Slot: fb.slots[i]})
			}
		}
	}
	return buf
}

// Prices returns the authoritative link prices keyed by LinkID.
func (p *ParallelAllocator) Prices() map[topology.LinkID]float64 {
	out := make(map[topology.LinkID]float64)
	for _, lb := range p.up {
		for i, l := range lb.links {
			out[l] = lb.price[i]
		}
	}
	for _, lb := range p.down {
		for i, l := range lb.links {
			out[l] = lb.price[i]
		}
	}
	return out
}

// addInto adds src element-wise into dst.
func addInto(dst, src []float64) {
	for i := range dst {
		dst[i] += src[i]
	}
}

// barrier is a reusable sense-reversing barrier for n parties. Arrival is a
// single atomic add; the last arriver resets the count and advances the
// generation (the "sense"), releasing the others. Waiters spin briefly on the
// generation word — at the allocator's µs-scale phase lengths the partners
// usually arrive within the spin budget, so the common case costs no kernel
// transition — and park on a condition variable only when the spin budget
// runs out (or the scheduler is oversubscribed).
type barrier struct {
	n       int32
	spins   int
	arrived atomic.Int32
	gen     atomic.Uint32

	mu   sync.Mutex
	cond *sync.Cond
}

// barrierSpins bounds the busy-wait before a waiter parks.
const barrierSpins = 1 << 13

func newBarrier(n int) *barrier {
	b := &barrier{n: int32(n)}
	// Spinning only pays when the stragglers can run concurrently with
	// the spinner; on an oversubscribed scheduler the spinner's timeslice
	// is exactly what the last arriver is waiting for, so park at once.
	if n <= runtime.GOMAXPROCS(0) {
		b.spins = barrierSpins
	}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// wait blocks until all n parties have called wait for the current
// generation.
func (b *barrier) wait() {
	gen := b.gen.Load()
	if b.arrived.Add(1) == b.n {
		// Reset before flipping the sense: the other n-1 parties are all
		// inside wait, so no new arrival can race the reset.
		b.arrived.Store(0)
		b.mu.Lock()
		b.gen.Add(1)
		b.mu.Unlock()
		b.cond.Broadcast()
		return
	}
	for spins := 0; spins < b.spins; spins++ {
		if b.gen.Load() != gen {
			return
		}
		if spins&63 == 63 {
			// Yield periodically so spinning cannot starve the very
			// parties being waited for if the scheduler shrank.
			runtime.Gosched()
		}
	}
	b.mu.Lock()
	for b.gen.Load() == gen {
		b.cond.Wait()
	}
	b.mu.Unlock()
}
