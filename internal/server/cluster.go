package server

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/wire"
)

// This file implements the daemon side of the sharded allocator cluster: a
// flowtuned instance configured with NumShards > 0 owns one rack block of
// the fabric (its servers plus all links anchored at its racks) and runs the
// ordinary allocator over just its own flows. The only state it shares with
// its peers is the boundary: downward links, which remote flows traverse.
// After every iteration the daemon pushes, to each peer,
//
//   - a PriceDigest with its local load and Hessian-diagonal contributions
//     on the links that peer owns (so the owner prices boundary links from
//     cluster-wide demand), and
//   - a PriceSnapshot of its own boundary-link prices (so peers rate their
//     cross-shard flows against the owner's congestion signal).
//
// Inbound bundles are folded in at the next iteration boundary, exactly like
// flowlet notifications. In step-driven runs a bundle stamped with iteration
// k is folded at iteration k+1 regardless of shard stepping order, and every
// push waits for the receiver's ExchangeAck, which together make cluster
// runs deterministic; free-running daemons fold whatever has arrived.

// exchanger is implemented by engines that support the boundary-price
// exchange. Both engines do: the sequential core engine delegates to the
// allocator's boundary API over its global price/load arrays, and the
// parallel engine to the block-local equivalents (external loads and pins
// folded into the owning LinkBlock, digests exported from the owner
// FlowBlocks' merged accumulators in the same canonical link order).
type exchanger interface {
	SetExternalLoads(links []topology.LinkID, loads, hdiag []float64)
	PinPrices(links []topology.LinkID, prices []float64)
	BoundaryDigest(links []topology.LinkID, loads, hdiag []float64) error
	LinkPrices(links []topology.LinkID, prices []float64)
	SeedPrices(links []topology.LinkID, prices []float64)
	UnpinPrices(links []topology.LinkID)
}

// exchangeMsg is one inbound peer frame waiting for the next iteration
// boundary. For a digest, vals/hdiag are the load/sensitivity entries; for a
// snapshot, vals holds prices and hdiag is nil; for a takeover announcement,
// from is the adopter and dead the adopted daemon. delta marks a wire v4
// delta frame (entries are a partial update; absent links keep their prior
// imported values) and reset re-baselines: a reset digest zeroes the
// sender's contributions before applying, a reset snapshot is a complete
// price listing.
type exchangeMsg struct {
	from     uint32
	seq      uint64
	snapshot bool
	takeover bool
	delta    bool
	reset    bool
	dead     uint32
	links    []int32
	vals     []float64
	hdiag    []float64
}

// replicaState is the latest flow-state replica received from one peer
// daemon: the flows it was serving, reassembled from FlowState chunks.
type replicaState struct {
	seq   uint64
	epoch uint64
	flows []wire.FlowStateEntry
}

// snapRecord retains the latest accepted prices from one peer daemon (the
// links it serves), so its successor can seed them when adopting. It is a
// merged map rather than the raw frames: v4 delta snapshots carry only the
// changed links, so the record accumulates across sequences and always holds
// the peer's full price set.
type snapRecord struct {
	seq    uint64
	prices map[topology.LinkID]float64
}

// peerConn is one outbound shard-to-shard connection; this daemon pushes its
// exchange bundles on it and reads acks back. It is only touched under
// shardState.sendMu after registration.
type peerConn struct {
	shard int
	conn  net.Conn
	sc    *wire.Scanner
	buf   []byte
	seq   uint64
	// acks is the number of ExchangeAcks the pending bundle will produce
	// (one per snapshot chunk; receivers ack each chunk).
	acks int
	// version is the wire protocol negotiated with this peer (the minimum
	// of both daemons' PeerHello versions); v4 peers get delta bundles.
	version uint16
	// needReset forces the next bundle to carry full (reset) digest and
	// snapshot frames. Set on a fresh connection — the receiver's imported
	// state is unknown — and whenever served-shard ownership changes.
	needReset bool
	// digestShadow / snapShadow record, per link, the (load, hdiag) and
	// price bit patterns last encoded for this peer; a delta bundle lists
	// only links whose value differs (missing key = send). Shadows advance
	// optimistically at build time: any push failure drops the whole
	// peerConn, and the reconnect's fresh connection starts with a reset,
	// so sender shadow and receiver state can never drift apart. Keyed by
	// LinkID, not boundary position, so they stay valid across takeovers.
	digestShadow map[topology.LinkID][2]uint64
	snapShadow   map[topology.LinkID]uint64
	// Reused delta-entry scratch.
	dLinks         []uint32
	dLoads, dHdiag []float64
	sLinks         []uint32
	sPrices        []float64
}

// peerExchangeTimeout bounds one bundle push (write + acks): a peer that is
// wedged — alive at the TCP level but not draining — must not stall the
// shard's allocation loop, so past this deadline it is dropped like a dead
// one and the shard keeps iterating on its last imported boundary state.
const peerExchangeTimeout = 2 * time.Second

// shardState is the sharded-cluster state of a daemon.
type shardState struct {
	smap     *topology.ShardMap
	index    int
	ex       exchanger
	numLinks int
	takeover bool
	interval time.Duration
	hbGrace  time.Duration

	// servedBy[x] is the daemon currently serving shard x's rack block:
	// initially the identity, re-pointed by takeovers. Every ownership
	// decision — flow admission, digest targeting, snapshot acceptance —
	// routes through it. Guarded by the server mutex.
	servedBy []int32
	// deadDaemons marks daemons known to be dead (adopted or announced).
	// Guarded by the server mutex.
	deadDaemons map[int]bool

	// boundary lists the downward links of every shard this daemon serves;
	// posOf maps a LinkID to its position in boundary (-1 otherwise).
	boundary []topology.LinkID
	posOf    []int32
	// remoteLinks caches, per peer daemon, the boundary links of the shards
	// it serves (the digest target set); invalidated on takeover.
	remoteLinks map[int][]topology.LinkID

	// lastSnap retains each peer daemon's latest accepted prices for
	// adoption seeding. Guarded by the server mutex (written at fold).
	lastSnap map[uint32]*snapRecord

	// announce holds takeover announcements awaiting inclusion in the next
	// exchange bundle. Guarded by the server mutex.
	announce []wire.Takeover

	// Latest digest from each peer, dense over boundary; extLoad/extHdiag
	// are the sums handed to the engine after each fold.
	peerLoad  map[uint32][]float64
	peerHdiag map[uint32][]float64
	extLoad   []float64
	extHdiag  []float64

	// sendMu serializes whole fold → iterate → push sequences so peers
	// observe bundles in iteration order.
	sendMu sync.Mutex

	// pmu guards peers (outbound connections, keyed by shard).
	pmu   sync.Mutex
	peers map[int]*peerConn

	// inMu guards pending, the inbound messages awaiting fold; drain is
	// the swap buffer that keeps free-running folds allocation-free. It
	// also guards the failover reception state below (written by peer
	// reader goroutines and the push path).
	inMu    sync.Mutex
	pending []exchangeMsg
	drain   []exchangeMsg
	// replicas holds the latest flow-state replica per peer daemon;
	// lastHeard the last time any frame arrived from it; deadPending the
	// daemons detected dead and awaiting the next iteration boundary.
	replicas    map[uint32]*replicaState
	lastHeard   map[int]time.Time
	deadPending []int

	// Reused build/fold scratch.
	digestLoads, digestHdiag, snapPrices []float64
	pinLinks                             []topology.LinkID
	pinVals                              []float64
}

// newShardState validates the sharded configuration and prepares the
// exchange state.
func newShardState(cfg Config, eng engine) (*shardState, error) {
	// Both engines implement exchanger; the assertion stays as a defensive
	// gate for any future engine that does not.
	ex, ok := eng.(exchanger)
	if !ok {
		return nil, fmt.Errorf("server: sharded mode requires an engine with boundary-exchange support")
	}
	if cfg.ShardIndex < 0 || cfg.ShardIndex >= cfg.NumShards {
		return nil, fmt.Errorf("server: ShardIndex %d out of range for %d shards", cfg.ShardIndex, cfg.NumShards)
	}
	smap, err := topology.NewShardMap(cfg.Topology, cfg.NumShards)
	if err != nil {
		return nil, err
	}
	st := &shardState{
		smap:        smap,
		index:       cfg.ShardIndex,
		ex:          ex,
		numLinks:    cfg.Topology.NumLinks(),
		takeover:    cfg.Takeover,
		interval:    cfg.Interval,
		hbGrace:     cfg.HeartbeatTimeout,
		servedBy:    make([]int32, cfg.NumShards),
		deadDaemons: make(map[int]bool),
		boundary:    smap.BoundaryLinks(cfg.ShardIndex),
		posOf:       make([]int32, cfg.Topology.NumLinks()),
		remoteLinks: make(map[int][]topology.LinkID),
		lastSnap:    make(map[uint32]*snapRecord),
		peerLoad:    make(map[uint32][]float64),
		peerHdiag:   make(map[uint32][]float64),
		peers:       make(map[int]*peerConn),
		replicas:    make(map[uint32]*replicaState),
		lastHeard:   make(map[int]time.Time),
	}
	for i := range st.servedBy {
		st.servedBy[i] = int32(i)
	}
	for i := range st.posOf {
		st.posOf[i] = -1
	}
	for i, l := range st.boundary {
		st.posOf[l] = int32(i)
	}
	st.extLoad = make([]float64, len(st.boundary))
	st.extHdiag = make([]float64, len(st.boundary))
	st.snapPrices = make([]float64, len(st.boundary))
	return st, nil
}

// ownsFlow reports whether a flowlet from src belongs to a shard this daemon
// currently serves (its own, plus any adopted by takeover). Out-of-range
// servers pass through so the engine rejects them with its own clearer
// error. Called with the server mutex held.
func (st *shardState) ownsFlow(src, dst int) bool {
	if src < 0 || src >= st.smap.Topology().NumServers() {
		return true
	}
	return st.servedBy[st.smap.ShardOfFlow(src, dst)] == int32(st.index)
}

// servesLink reports whether the daemon currently serving the shard that
// owns link l is daemon `from` — the snapshot-acceptance rule. Called with
// the server mutex held.
func (st *shardState) servesLink(l topology.LinkID, from uint32) bool {
	owner := st.smap.OwnerOfLink(l)
	return owner >= 0 && st.servedBy[owner] == int32(from)
}

// successorOf returns the daemon that should adopt dead's rack block: the
// next index after dead, skipping daemons already known dead. Every
// surviving daemon computes the same answer from the same death knowledge,
// so exactly one adopts. Called with the server mutex held.
func (st *shardState) successorOf(dead int) int {
	n := st.smap.NumShards()
	for i := 1; i < n; i++ {
		c := (dead + i) % n
		if c == st.index {
			return c
		}
		if !st.deadDaemons[c] && c != dead {
			return c
		}
	}
	return st.index
}

// noteDead queues a daemon for death processing at the next iteration
// boundary. Safe without the server mutex (inMu-guarded).
func (st *shardState) noteDead(daemon int) {
	st.inMu.Lock()
	for _, d := range st.deadPending {
		if d == daemon {
			st.inMu.Unlock()
			return
		}
	}
	st.deadPending = append(st.deadPending, daemon)
	st.inMu.Unlock()
}

// noteHeard stamps the liveness clock of a peer daemon.
func (st *shardState) noteHeard(daemon int) {
	st.inMu.Lock()
	st.lastHeard[daemon] = time.Now()
	st.inMu.Unlock()
}

// storeReplica folds one FlowState chunk into the replica held for a peer
// daemon: a chunk with a new sequence number starts a fresh replica, further
// chunks with the same sequence append (frames arrive in order).
func (st *shardState) storeReplica(fs wire.FlowState) {
	st.inMu.Lock()
	rep := st.replicas[fs.Shard]
	if rep == nil || rep.seq != fs.Seq || rep.epoch != fs.Epoch {
		rep = &replicaState{seq: fs.Seq, epoch: fs.Epoch}
		st.replicas[fs.Shard] = rep
	}
	for i := 0; i < fs.Len(); i++ {
		rep.flows = append(rep.flows, fs.Entry(i))
	}
	st.inMu.Unlock()
}

// peerContrib returns (allocating on first use) the dense contribution
// arrays of one peer.
func (st *shardState) peerContrib(from uint32) (loads, hdiag []float64) {
	loads, ok := st.peerLoad[from]
	if !ok {
		loads = make([]float64, len(st.boundary))
		hdiag = make([]float64, len(st.boundary))
		st.peerLoad[from] = loads
		st.peerHdiag[from] = hdiag
		return loads, hdiag
	}
	return loads, st.peerHdiag[from]
}

// closePeers tears down every outbound peer connection.
func (st *shardState) closePeers() {
	st.pmu.Lock()
	defer st.pmu.Unlock()
	for _, pc := range st.peers {
		pc.conn.Close()
	}
	clear(st.peers)
}

// ---------------------------------------------------------------------------
// Outbound: dialing peers and pushing bundles.

// ConnectPeer attaches an outbound shard-to-shard connection: it performs
// the symmetric PeerHello handshake over conn and, on success, pushes this
// daemon's exchange bundle to that peer after every iteration, returning the
// peer's shard index (so dialers can monitor it with HasPeer and redial).
// The caller supplies the transport (TCP for real clusters, a net.Pipe end
// for in-process ones); serving the *inbound* direction is the remote
// daemon's job (its ServeConn recognizes the PeerHello). Reconnecting an
// already connected shard replaces the previous connection.
func (s *Server) ConnectPeer(conn net.Conn) (int, error) {
	if s.shard == nil {
		conn.Close()
		return -1, fmt.Errorf("server: ConnectPeer on an unsharded daemon")
	}
	if s.isClosed() {
		conn.Close()
		return -1, net.ErrClosed
	}
	hello := wire.AppendPeerHello(nil, wire.PeerHello{
		Version:   wire.Version,
		Shard:     uint32(s.cfg.ShardIndex),
		NumShards: uint32(s.cfg.NumShards),
		Epoch:     s.Epoch(),
	})
	// Bound the whole handshake: a peer that accepts TCP but never replies
	// (wrong service, frozen daemon) must fail the dial attempt, not wedge
	// the dial-with-retry loop forever.
	if err := conn.SetDeadline(time.Now().Add(peerExchangeTimeout)); err != nil {
		conn.Close()
		return -1, fmt.Errorf("server: peer handshake: %w", err)
	}
	if _, err := conn.Write(hello); err != nil {
		conn.Close()
		return -1, fmt.Errorf("server: peer handshake: %w", err)
	}
	sc := wire.NewScanner(conn)
	typ, payload, err := sc.Next()
	if err != nil {
		conn.Close()
		return -1, fmt.Errorf("server: peer handshake: %w", err)
	}
	if err := conn.SetDeadline(time.Time{}); err != nil {
		conn.Close()
		return -1, fmt.Errorf("server: peer handshake: %w", err)
	}
	if typ != wire.TypePeerHello {
		conn.Close()
		return -1, fmt.Errorf("server: peer handshake: expected peer-hello, got %s", typ)
	}
	reply, err := wire.DecodePeerHello(payload)
	if err != nil {
		conn.Close()
		return -1, fmt.Errorf("server: peer handshake: %w", err)
	}
	if err := s.shard.validatePeer(reply); err != nil {
		conn.Close()
		return -1, err
	}
	pc := &peerConn{
		shard:     int(reply.Shard),
		conn:      conn,
		sc:        sc,
		version:   min(reply.Version, wire.Version),
		needReset: true,
	}
	s.shard.pmu.Lock()
	old := s.shard.peers[pc.shard]
	s.shard.peers[pc.shard] = pc
	s.shard.pmu.Unlock()
	if old != nil {
		old.conn.Close()
	}
	s.logf("peer shard %d connected (epoch %d)", pc.shard, reply.Epoch)
	return pc.shard, nil
}

// HasPeer reports whether an outbound connection to the given shard is
// currently attached; dial loops poll it to detect a dropped peer and
// redial.
func (s *Server) HasPeer(shard int) bool {
	if s.shard == nil {
		return false
	}
	s.shard.pmu.Lock()
	defer s.shard.pmu.Unlock()
	_, ok := s.shard.peers[shard]
	return ok
}

// validatePeer checks a PeerHello against this daemon's cluster shape.
func (st *shardState) validatePeer(h wire.PeerHello) error {
	switch {
	case h.Version > wire.Version:
		return fmt.Errorf("server: peer speaks protocol v%d, daemon supports v%d", h.Version, wire.Version)
	case int(h.NumShards) != st.smap.NumShards():
		return fmt.Errorf("server: peer believes in %d shards, this cluster has %d", h.NumShards, st.smap.NumShards())
	case int(h.Shard) >= st.smap.NumShards():
		return fmt.Errorf("server: peer shard %d out of range for %d shards", h.Shard, st.smap.NumShards())
	case int(h.Shard) == st.index:
		return fmt.Errorf("server: peer claims this daemon's own shard %d", h.Shard)
	}
	return nil
}

// Peers returns the shard indices of the currently connected outbound peers,
// sorted.
func (s *Server) Peers() []int {
	if s.shard == nil {
		return nil
	}
	s.shard.pmu.Lock()
	out := make([]int, 0, len(s.shard.peers))
	for shard := range s.shard.peers {
		out = append(out, shard)
	}
	s.shard.pmu.Unlock()
	sort.Ints(out)
	return out
}

// buildExchangeLocked encodes this iteration's digest+snapshot bundle for
// every connected peer and returns the peers to push to, in shard order.
// Called with s.mu (engine state) and shard.sendMu held.
func (s *Server) buildExchangeLocked(seq uint64) []*peerConn {
	st := s.shard
	st.pmu.Lock()
	peers := make([]*peerConn, 0, len(st.peers))
	for _, pc := range st.peers {
		peers = append(peers, pc)
	}
	st.pmu.Unlock()
	if len(peers) == 0 {
		return nil
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i].shard < peers[j].shard })

	st.ex.LinkPrices(st.boundary, st.snapPrices)
	epoch := s.Epoch()
	// Takeover mode: replicate this daemon's live flows to its successor in
	// every bundle, so the successor always holds the state it would need to
	// adopt; announcements of completed takeovers ride in every bundle once.
	var replica []core.ParallelFlow
	successor := -1
	if st.takeover {
		if sn, ok := s.eng.(snapshotter); ok {
			replica = sn.LiveFlows()
			successor = st.successorOf(st.index)
		}
	}
	announce := st.announce
	st.announce = nil
	for _, pc := range peers {
		remote := st.remoteLinksFor(pc.shard)
		if cap(st.digestLoads) < len(remote) {
			st.digestLoads = make([]float64, len(remote))
			st.digestHdiag = make([]float64, len(remote))
		}
		loads := st.digestLoads[:len(remote)]
		hdiag := st.digestHdiag[:len(remote)]
		if err := st.ex.BoundaryDigest(remote, loads, hdiag); err != nil {
			s.logf("boundary digest for shard %d: %v", pc.shard, err)
			continue
		}
		buf := pc.buf[:0]
		if pc.version >= 4 {
			buf = pc.appendDigestDelta(buf, seq, uint32(st.index), remote, loads, hdiag)
		} else {
			for start := 0; start < len(remote); start += wire.MaxDigestEntries {
				end := min(start+wire.MaxDigestEntries, len(remote))
				buf = wire.AppendPriceDigestHeader(buf, seq, uint32(st.index), end-start)
				for i := start; i < end; i++ {
					buf = wire.AppendDigestEntry(buf, wire.DigestEntry{
						Link: uint32(remote[i]), Load: loads[i], Hdiag: hdiag[i],
					})
				}
			}
		}
		exchBytes := len(buf)
		if st.takeover {
			buf = wire.AppendHeartbeat(buf, wire.Heartbeat{Seq: seq, Shard: uint32(st.index)})
		}
		for _, t := range announce {
			t.Epoch, t.Seq = epoch, seq
			buf = wire.AppendTakeover(buf, t)
		}
		if pc.shard == successor {
			for start := 0; start < len(replica) || start == 0; start += wire.MaxFlowStateEntries {
				end := min(start+wire.MaxFlowStateEntries, len(replica))
				buf = wire.AppendFlowStateHeader(buf, epoch, seq, uint32(st.index), end-start)
				for _, f := range replica[start:end] {
					buf = wire.AppendFlowStateEntry(buf, wire.FlowStateEntry{
						Flow: int64(f.ID), Src: int32(f.Src), Dst: int32(f.Dst), Weight: f.Weight,
					})
				}
				if end == len(replica) {
					break
				}
			}
		}
		// The receiver acks every snapshot chunk, so count the chunks this
		// bundle will produce for sendExchange to await. Snapshot chunks go
		// last: their acks therefore confirm delivery of the whole bundle,
		// including any replica and takeover frames written above.
		ctrl := len(buf)
		pc.acks = 0
		if pc.version >= 4 {
			buf = pc.appendSnapshotDelta(buf, epoch, seq, uint32(st.index), st.boundary, st.snapPrices)
		} else {
			for start := 0; start < len(st.boundary); start += wire.MaxSnapshotEntries {
				end := min(start+wire.MaxSnapshotEntries, len(st.boundary))
				buf = wire.AppendPriceSnapshotHeader(buf, epoch, seq, uint32(st.index), end-start)
				for i := start; i < end; i++ {
					buf = wire.AppendSnapshotEntry(buf, wire.SnapshotEntry{
						Link: uint32(st.boundary[i]), Price: st.snapPrices[i],
					})
				}
				pc.acks++
			}
		}
		exchBytes += len(buf) - ctrl
		pc.needReset = false
		pc.buf = buf
		pc.seq = seq
		// Exchange byte accounting happens at build time, not send time, so
		// the counters are deterministic in step-driven runs. Heartbeat,
		// takeover, and replica frames are excluded: they exist in both
		// encodings unchanged.
		s.stExchBytes.Add(int64(exchBytes))
		s.stExchFixed.Add(fixedExchangeBytes(len(remote), len(st.boundary)))
	}
	return peers
}

// appendDigestDelta encodes this iteration's digest for a v4 peer. On a
// fresh or resyncing connection it emits a reset digest — the receiver
// zeroes this daemon's contributions before applying it, so all-zero links
// can be omitted. Afterwards only links whose (load, hdiag) pair changed
// bit-wise since the last built bundle are listed; the receiver keeps prior
// values for omitted links, which is exactly what refreshing them from a
// full v3 digest would produce. A quiet iteration still emits one empty
// frame (header only): the fold and staleness counters measure per-iteration
// exchange behaviour, and an explicit "nothing changed" marker keeps them —
// and every committed baseline that records them — identical across wire
// versions at a cost of a few bytes.
func (pc *peerConn) appendDigestDelta(buf []byte, seq uint64, shard uint32, remote []topology.LinkID, loads, hdiag []float64) []byte {
	reset := pc.needReset || pc.digestShadow == nil
	if pc.digestShadow == nil {
		pc.digestShadow = make(map[topology.LinkID][2]uint64, len(remote))
	} else if reset {
		clear(pc.digestShadow)
	}
	links := pc.dLinks[:0]
	dl := pc.dLoads[:0]
	dh := pc.dHdiag[:0]
	for i, l := range remote {
		bits := [2]uint64{math.Float64bits(loads[i]), math.Float64bits(hdiag[i])}
		if reset {
			pc.digestShadow[l] = bits
			if loads[i] == 0 && hdiag[i] == 0 {
				continue // implied by the reset
			}
		} else {
			if prev, ok := pc.digestShadow[l]; ok && prev == bits {
				continue
			}
			pc.digestShadow[l] = bits
		}
		links = append(links, uint32(l))
		dl = append(dl, loads[i])
		dh = append(dh, hdiag[i])
	}
	pc.dLinks, pc.dLoads, pc.dHdiag = links, dl, dh
	for start := 0; ; start += wire.MaxDigestDeltaEntries {
		end := min(start+wire.MaxDigestDeltaEntries, len(links))
		buf = wire.AppendPriceDigestDelta(buf, seq, shard, reset && start == 0, links[start:end], dl[start:end], dh[start:end])
		if end >= len(links) {
			break
		}
	}
	return buf
}

// appendSnapshotDelta encodes this iteration's boundary-price snapshot for a
// v4 peer and sets pc.acks. A reset lists every boundary link — a pinned
// zero price is not the same as no pin, so resets cannot omit entries —
// while later bundles list only changed prices. At least one (possibly
// empty) frame is always emitted: the receiver acks each snapshot-delta
// chunk, and that ack is the delivery barrier step-driven determinism rests
// on.
func (pc *peerConn) appendSnapshotDelta(buf []byte, epoch, seq uint64, shard uint32, boundary []topology.LinkID, prices []float64) []byte {
	reset := pc.needReset || pc.snapShadow == nil
	if pc.snapShadow == nil {
		pc.snapShadow = make(map[topology.LinkID]uint64, len(boundary))
	} else if reset {
		clear(pc.snapShadow)
	}
	links := pc.sLinks[:0]
	vals := pc.sPrices[:0]
	for i, l := range boundary {
		bits := math.Float64bits(prices[i])
		if !reset {
			if prev, ok := pc.snapShadow[l]; ok && prev == bits {
				continue
			}
		}
		pc.snapShadow[l] = bits
		links = append(links, uint32(l))
		vals = append(vals, prices[i])
	}
	pc.sLinks, pc.sPrices = links, vals
	pc.acks = 0
	for start := 0; ; start += wire.MaxSnapshotDeltaEntries {
		end := min(start+wire.MaxSnapshotDeltaEntries, len(links))
		buf = wire.AppendPriceSnapshotDelta(buf, epoch, seq, shard, reset && start == 0, links[start:end], vals[start:end])
		pc.acks++
		if end >= len(links) {
			break
		}
	}
	return buf
}

// fixedExchangeBytes is the wire cost this bundle's digest and snapshot
// would have as fixed v3 frames with v3 chunking — the baseline of the
// ExchangeBytesFixed counter.
func fixedExchangeBytes(nRemote, nBoundary int) int64 {
	var b int64
	for start := 0; start < nRemote; start += wire.MaxDigestEntries {
		b += int64(wire.PriceDigestSize(min(wire.MaxDigestEntries, nRemote-start)))
	}
	for start := 0; start < nBoundary; start += wire.MaxSnapshotEntries {
		b += int64(wire.PriceSnapshotSize(min(wire.MaxSnapshotEntries, nBoundary-start)))
	}
	return b
}

// markResyncPeers forces the next bundle to every connected peer to carry a
// full (reset) digest and snapshot. Called whenever served-shard ownership
// changes: the per-link shadows themselves stay valid across a takeover
// (both sides track links, not boundary positions), but a full resync after
// the rare ownership change keeps the sender/receiver invariant easy to
// audit and bounds any divergence to one exchange round.
func (st *shardState) markResyncPeers() {
	st.pmu.Lock()
	for _, pc := range st.peers {
		pc.needReset = true
	}
	st.pmu.Unlock()
}

// remoteLinksFor returns the boundary links of every shard a peer daemon
// currently serves — the links a digest pushed to it must cover. Called with
// the server mutex held; the cache is invalidated when takeovers re-point
// servedBy.
func (st *shardState) remoteLinksFor(daemon int) []topology.LinkID {
	if links, ok := st.remoteLinks[daemon]; ok {
		return links
	}
	var links []topology.LinkID
	for x := 0; x < st.smap.NumShards(); x++ {
		if st.servedBy[x] == int32(daemon) {
			links = append(links, st.smap.BoundaryLinks(x)...)
		}
	}
	st.remoteLinks[daemon] = links
	return links
}

// sendExchange pushes the prepared bundles and waits for each peer's ack
// (the receiver acknowledges from its reader goroutine immediately, never
// from its own iteration path, so two shards pushing to each other cannot
// deadlock). A peer that fails is dropped; the shard keeps iterating with
// its last imported state until the operator reconnects it.
func (s *Server) sendExchange(peers []*peerConn) {
	for _, pc := range peers {
		if len(pc.buf) == 0 {
			continue
		}
		// Bound the whole push: a wedged peer (alive but not draining) is
		// dropped at the deadline instead of freezing the allocation loop.
		if err := pc.conn.SetDeadline(time.Now().Add(peerExchangeTimeout)); err != nil {
			s.dropPeer(pc, err)
			continue
		}
		if err := s.pushBundle(pc); err != nil {
			s.dropPeer(pc, err)
			continue
		}
		if err := pc.conn.SetDeadline(time.Time{}); err != nil {
			s.dropPeer(pc, err)
		}
	}
}

// pushBundle writes one prepared bundle and consumes its acks (one per
// snapshot chunk, each echoing the bundle's sequence number).
func (s *Server) pushBundle(pc *peerConn) error {
	if _, err := pc.conn.Write(pc.buf); err != nil {
		return err
	}
	for i := 0; i < pc.acks; i++ {
		typ, payload, err := pc.sc.Next()
		if err != nil {
			return err
		}
		if typ != wire.TypeExchangeAck {
			return fmt.Errorf("unexpected %s frame", typ)
		}
		seq, err := wire.DecodeExchangeAck(payload)
		if err != nil || seq != pc.seq {
			return fmt.Errorf("bad exchange ack (seq %d, want %d): %v", seq, pc.seq, err)
		}
	}
	return nil
}

// dropPeer detaches a failed outbound peer connection. With takeover
// enabled a failed push is the death signal: the peer is queued for
// processing at the next iteration boundary, where this daemon either
// adopts its rack block (if it is the successor) or just records the death.
// Keeping detection on the synchronous push path — never on asynchronous
// inbound EOFs — is what keeps step-driven cluster runs deterministic.
func (s *Server) dropPeer(pc *peerConn, err error) {
	st := s.shard
	st.pmu.Lock()
	if st.peers[pc.shard] == pc {
		delete(st.peers, pc.shard)
	}
	st.pmu.Unlock()
	pc.conn.Close()
	if s.isClosed() {
		return
	}
	s.logf("peer shard %d dropped: %v", pc.shard, err)
	if st.takeover {
		st.noteDead(pc.shard)
	}
}

// ---------------------------------------------------------------------------
// Inbound: serving peer sessions and folding their bundles.

// servePeer runs one inbound shard-to-shard session: it completes the
// symmetric handshake, then enqueues every digest and snapshot for the next
// iteration boundary, acknowledging each bundle as its snapshot arrives.
func (s *Server) servePeer(conn net.Conn, sc *wire.Scanner, payload []byte) error {
	if s.shard == nil {
		return fmt.Errorf("server: peer hello on an unsharded daemon")
	}
	hello, err := wire.DecodePeerHello(payload)
	if err != nil {
		return fmt.Errorf("server: peer handshake: %w", err)
	}
	if err := s.shard.validatePeer(hello); err != nil {
		return err
	}
	reply := wire.AppendPeerHello(nil, wire.PeerHello{
		Version:   wire.Version,
		Shard:     uint32(s.cfg.ShardIndex),
		NumShards: uint32(s.cfg.NumShards),
		Epoch:     s.Epoch(),
	})
	if _, err := conn.Write(reply); err != nil {
		return fmt.Errorf("server: peer handshake: %w", err)
	}
	s.logf("peer shard %d session from %v (epoch %d)", hello.Shard, conn.RemoteAddr(), hello.Epoch)

	var ack []byte
	var dd wire.PriceDigestDelta
	var sd wire.PriceSnapshotDelta
	for {
		typ, payload, err := sc.Next()
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrClosedPipe) {
				return nil
			}
			return fmt.Errorf("server: peer shard %d: %w", hello.Shard, err)
		}
		s.shard.noteHeard(int(hello.Shard))
		switch typ {
		case wire.TypePriceDigest:
			d, err := wire.DecodePriceDigest(payload)
			if err != nil {
				return fmt.Errorf("server: peer shard %d: %w", hello.Shard, err)
			}
			if d.Shard != hello.Shard {
				s.stPeerRej.Add(1)
				continue
			}
			s.shard.enqueueDigest(d)
		case wire.TypePriceDigestDelta:
			if err := wire.DecodePriceDigestDelta(payload, &dd); err != nil {
				return fmt.Errorf("server: peer shard %d: %w", hello.Shard, err)
			}
			if dd.Shard != hello.Shard {
				s.stPeerRej.Add(1)
				continue
			}
			s.shard.enqueueDigestDelta(dd)
		case wire.TypePriceSnapshotDelta:
			if err := wire.DecodePriceSnapshotDelta(payload, &sd); err != nil {
				return fmt.Errorf("server: peer shard %d: %w", hello.Shard, err)
			}
			if sd.Shard != hello.Shard || sd.Epoch < hello.Epoch {
				// Wrong sender or a pre-session generation: drop the content
				// but still ack — the peer blocks on delivery, not
				// acceptance.
				s.stPeerRej.Add(1)
			} else {
				s.shard.enqueueSnapshotDelta(sd)
			}
			ack = wire.AppendExchangeAck(ack[:0], sd.Seq)
			if _, err := conn.Write(ack); err != nil {
				return fmt.Errorf("server: peer shard %d: ack: %w", hello.Shard, err)
			}
		case wire.TypePriceSnapshot:
			sn, err := wire.DecodePriceSnapshot(payload)
			if err != nil {
				return fmt.Errorf("server: peer shard %d: %w", hello.Shard, err)
			}
			if sn.Shard != hello.Shard || sn.Epoch < hello.Epoch {
				// Wrong sender or a snapshot taken before the generation
				// this session advertised: drop the content but still ack,
				// because the peer blocks on delivery, not acceptance.
				s.stPeerRej.Add(1)
			} else {
				s.shard.enqueueSnapshot(sn)
			}
			ack = wire.AppendExchangeAck(ack[:0], sn.Seq)
			if _, err := conn.Write(ack); err != nil {
				return fmt.Errorf("server: peer shard %d: ack: %w", hello.Shard, err)
			}
		case wire.TypeHeartbeat:
			hb, err := wire.DecodeHeartbeat(payload)
			if err != nil {
				return fmt.Errorf("server: peer shard %d: %w", hello.Shard, err)
			}
			if hb.Shard != hello.Shard {
				s.stPeerRej.Add(1)
			}
		case wire.TypeFlowState:
			fs, err := wire.DecodeFlowState(payload)
			if err != nil {
				return fmt.Errorf("server: peer shard %d: %w", hello.Shard, err)
			}
			if fs.Shard != hello.Shard || fs.Epoch < hello.Epoch {
				s.stPeerRej.Add(1)
				continue
			}
			s.shard.storeReplica(fs)
		case wire.TypeTakeover:
			tk, err := wire.DecodeTakeover(payload)
			if err != nil {
				return fmt.Errorf("server: peer shard %d: %w", hello.Shard, err)
			}
			if tk.By != hello.Shard {
				s.stPeerRej.Add(1)
				continue
			}
			s.shard.enqueueTakeover(tk)
		default:
			return fmt.Errorf("server: peer shard %d: unexpected %s frame", hello.Shard, typ)
		}
	}
}

// enqueueTakeover queues a takeover announcement for the next iteration
// boundary, where it re-points servedBy like any other seq-stamped fold.
func (st *shardState) enqueueTakeover(tk wire.Takeover) {
	st.inMu.Lock()
	st.pending = append(st.pending, exchangeMsg{
		from: tk.By, seq: tk.Seq, takeover: true, dead: tk.Dead,
	})
	st.inMu.Unlock()
}

// enqueueDigest copies a digest out of the scanner buffer into the pending
// queue.
func (st *shardState) enqueueDigest(d wire.PriceDigest) {
	m := exchangeMsg{
		from:  d.Shard,
		seq:   d.Seq,
		links: make([]int32, d.Len()),
		vals:  make([]float64, d.Len()),
		hdiag: make([]float64, d.Len()),
	}
	for i := 0; i < d.Len(); i++ {
		e := d.Entry(i)
		m.links[i] = int32(e.Link)
		m.vals[i] = e.Load
		m.hdiag[i] = e.Hdiag
	}
	st.inMu.Lock()
	st.pending = append(st.pending, m)
	st.inMu.Unlock()
}

// enqueueDigestDelta copies a decoded delta digest (the decode scratch is
// reused frame to frame) into the pending queue.
func (st *shardState) enqueueDigestDelta(d wire.PriceDigestDelta) {
	m := exchangeMsg{
		from:  d.Shard,
		seq:   d.Seq,
		delta: true,
		reset: d.Reset,
		links: make([]int32, len(d.Links)),
		vals:  make([]float64, len(d.Links)),
		hdiag: make([]float64, len(d.Links)),
	}
	for i, l := range d.Links {
		m.links[i] = int32(l)
	}
	copy(m.vals, d.Loads)
	copy(m.hdiag, d.Hdiag)
	st.inMu.Lock()
	st.pending = append(st.pending, m)
	st.inMu.Unlock()
}

// enqueueSnapshotDelta copies a decoded delta snapshot into the pending
// queue.
func (st *shardState) enqueueSnapshotDelta(sn wire.PriceSnapshotDelta) {
	m := exchangeMsg{
		from:     sn.Shard,
		seq:      sn.Seq,
		snapshot: true,
		delta:    true,
		reset:    sn.Reset,
		links:    make([]int32, len(sn.Links)),
		vals:     make([]float64, len(sn.Links)),
	}
	for i, l := range sn.Links {
		m.links[i] = int32(l)
	}
	copy(m.vals, sn.Prices)
	st.inMu.Lock()
	st.pending = append(st.pending, m)
	st.inMu.Unlock()
}

// enqueueSnapshot copies a snapshot out of the scanner buffer into the
// pending queue.
func (st *shardState) enqueueSnapshot(sn wire.PriceSnapshot) {
	m := exchangeMsg{
		from:     sn.Shard,
		seq:      sn.Seq,
		snapshot: true,
		links:    make([]int32, sn.Len()),
		vals:     make([]float64, sn.Len()),
	}
	for i := 0; i < sn.Len(); i++ {
		e := sn.Entry(i)
		m.links[i] = int32(e.Link)
		m.vals[i] = e.Price
	}
	st.inMu.Lock()
	st.pending = append(st.pending, m)
	st.inMu.Unlock()
}

// foldExchangeLocked folds pending peer bundles into the engine. Called with
// s.mu held, before flowlet events are drained. Step-driven daemons apply
// only bundles stamped at or before their own completed iteration count, so
// a bundle from iteration k lands at iteration k+1 on every shard no matter
// in which order a cluster client steps the daemons; free-running daemons
// fold everything that has arrived.
func (s *Server) foldExchangeLocked() {
	st := s.shard
	st.inMu.Lock()
	if len(st.pending) == 0 {
		st.inMu.Unlock()
		return
	}
	var apply []exchangeMsg
	if s.cfg.Interval == 0 {
		kept := st.pending[:0]
		for _, m := range st.pending {
			if m.seq <= s.seq {
				apply = append(apply, m)
			} else {
				kept = append(kept, m)
			}
		}
		st.pending = kept
	} else {
		apply = st.pending
		st.pending = st.drain[:0]
		st.drain = apply
	}
	st.inMu.Unlock()

	digests := false
	for _, m := range apply {
		s.stPeerEx.Add(1)
		// Staleness: how many local iterations old the peer's bundle is at
		// the moment it takes effect. Step-driven daemons fold at exactly
		// seq+1 (staleness 1); free-running daemons can fold older — or,
		// clamped to zero, newer — bundles depending on scheduling.
		s.stExchFolds.Add(1)
		if lag := int64(s.seq) - int64(m.seq); lag > 0 {
			s.stExchStale.Add(lag)
		}
		if m.takeover {
			s.applyTakeoverLocked(int(m.dead), int(m.from))
			digests = true // peer contributions changed; re-sum below
			continue
		}
		if m.snapshot {
			st.pinLinks = st.pinLinks[:0]
			st.pinVals = st.pinVals[:0]
			for i, l := range m.links {
				if l < 0 || int(l) >= st.numLinks || !st.servesLink(topology.LinkID(l), m.from) {
					s.stPeerRej.Add(1)
					continue
				}
				st.pinLinks = append(st.pinLinks, topology.LinkID(l))
				st.pinVals = append(st.pinVals, m.vals[i])
			}
			if len(st.pinLinks) > 0 {
				st.ex.PinPrices(st.pinLinks, st.pinVals)
			}
			if len(st.pinLinks) > 0 || m.reset {
				st.retainSnapshot(m.from, m.seq, st.pinLinks, st.pinVals, m.reset, m.delta)
			}
			continue
		}
		loads, hdiag := st.peerContrib(m.from)
		if m.reset {
			// A reset digest re-baselines this sender: its previous
			// contributions are discarded before the (possibly sparse)
			// entries are applied, so all-zero links may be omitted.
			for i := range loads {
				loads[i], hdiag[i] = 0, 0
			}
		}
		for i, l := range m.links {
			pos := int32(-1)
			if l >= 0 && int(l) < st.numLinks {
				pos = st.posOf[l]
			}
			if pos < 0 {
				s.stPeerRej.Add(1)
				continue
			}
			loads[pos] = m.vals[i]
			hdiag[pos] = m.hdiag[i]
		}
		digests = true
	}
	if digests {
		for i := range st.extLoad {
			st.extLoad[i] = 0
			st.extHdiag[i] = 0
		}
		// Sum contributions in shard order, never map order: float addition
		// is not associative, so a randomized order would make runs with
		// three or more peers diverge at ULP scale.
		for from := 0; from < st.smap.NumShards(); from++ {
			loads, ok := st.peerLoad[uint32(from)]
			if !ok {
				continue
			}
			hdiag := st.peerHdiag[uint32(from)]
			for i := range st.extLoad {
				st.extLoad[i] += loads[i]
				st.extHdiag[i] += hdiag[i]
			}
		}
		st.ex.SetExternalLoads(st.boundary, st.extLoad, st.extHdiag)
	}
}

// retainSnapshot keeps a merged copy of a peer daemon's accepted prices for
// adoption seeding. Fixed (v3) snapshots are complete per sequence: chunks
// of one sequence accumulate, a newer sequence replaces. Delta (v4)
// snapshots list only changed links, so they merge across sequences and
// re-baseline on reset — either way the record always holds the peer's full
// last-known price set. Called with the server mutex held.
func (st *shardState) retainSnapshot(from uint32, seq uint64, links []topology.LinkID, prices []float64, reset, delta bool) {
	rec := st.lastSnap[from]
	if rec == nil {
		rec = &snapRecord{prices: make(map[topology.LinkID]float64, len(links))}
		st.lastSnap[from] = rec
	}
	if reset || (!delta && rec.seq != seq) {
		clear(rec.prices)
	}
	rec.seq = seq
	for i, l := range links {
		rec.prices[l] = prices[i]
	}
}

// applyTakeoverLocked re-points ownership after daemon `by` adopted dead
// daemon `dead`: every shard dead served is now served by the adopter,
// dead's stale digest contributions are discarded (the adopter's own digest
// now carries those flows' loads), and the digest-target cache is rebuilt.
// Called with the server mutex held.
func (s *Server) applyTakeoverLocked(dead, by int) {
	st := s.shard
	if dead == st.index || dead < 0 || dead >= st.smap.NumShards() {
		s.stPeerRej.Add(1)
		return
	}
	st.deadDaemons[dead] = true
	for x := range st.servedBy {
		if st.servedBy[x] == int32(dead) {
			st.servedBy[x] = int32(by)
		}
	}
	delete(st.peerLoad, uint32(dead))
	delete(st.peerHdiag, uint32(dead))
	clear(st.remoteLinks)
	// The adopter's digest target set just grew; push it (and everyone
	// else) a full bundle next iteration rather than a delta.
	st.markResyncPeers()
	s.logf("shard takeover: daemon %d adopted daemon %d's rack block", by, dead)
}

// processDeathsLocked handles daemons detected dead since the last
// iteration boundary: the successor adopts their rack blocks (seeding the
// replica flows and retained prices it holds) and queues a takeover
// announcement; everyone else records the death so successor elections
// stay consistent. Called with the server mutex and sendMu held, after
// foldExchangeLocked and before flowlet events are drained — a client
// re-registering an orphaned flow in the same step finds it already
// adopted.
func (s *Server) processDeathsLocked() {
	st := s.shard
	st.inMu.Lock()
	pend := st.deadPending
	st.deadPending = nil
	// Free-running daemons additionally declare peers dead on heartbeat
	// staleness; step-driven ones rely on push failures alone so runs stay
	// deterministic.
	if st.interval > 0 && st.hbGrace > 0 {
		now := time.Now()
		for d, heard := range st.lastHeard {
			if !st.deadDaemons[d] && now.Sub(heard) > st.hbGrace {
				pend = append(pend, d)
			}
		}
	}
	st.inMu.Unlock()
	if len(pend) == 0 {
		return
	}
	sort.Ints(pend)
	for _, dead := range pend {
		if dead == st.index || st.deadDaemons[dead] {
			continue
		}
		st.deadDaemons[dead] = true
		delete(st.peerLoad, uint32(dead))
		delete(st.peerHdiag, uint32(dead))
		clear(st.remoteLinks)
		st.markResyncPeers()
		if st.successorOf(dead) != st.index {
			continue
		}
		s.adoptLocked(dead)
	}
}

// adoptLocked makes this daemon serve dead's rack block: replica flows are
// admitted unowned (a reconnecting client claims them churn-free through
// the adoption path), the retained price snapshot is seeded and unpinned so
// the adopted boundary is priced locally from now on, ownership and the
// boundary arrays are rebuilt, and the takeover is queued for announcement
// in the next exchange bundle.
func (s *Server) adoptLocked(dead int) {
	st := s.shard
	st.inMu.Lock()
	rep := st.replicas[uint32(dead)]
	delete(st.replicas, uint32(dead))
	st.inMu.Unlock()

	adopted, failed := 0, 0
	if rep != nil {
		for _, e := range rep.flows {
			id := core.FlowID(e.Flow)
			if _, exists := s.flows.index[id]; exists {
				continue
			}
			if err := s.admitLocked(id, int(e.Src), int(e.Dst), e.Weight, 0, nil); err != nil {
				failed++
				continue
			}
			adopted++
		}
	}
	if rec := st.lastSnap[uint32(dead)]; rec != nil && len(rec.prices) > 0 {
		// Deterministic seeding order: the record is a merged map, so sort
		// by link. Per-link assignment makes the order cosmetic, but sorted
		// output keeps logs and tests stable.
		links := make([]topology.LinkID, 0, len(rec.prices))
		for l := range rec.prices {
			links = append(links, l)
		}
		sort.Slice(links, func(i, j int) bool { return links[i] < links[j] })
		prices := make([]float64, len(links))
		for i, l := range links {
			prices[i] = rec.prices[l]
		}
		st.ex.SeedPrices(links, prices)
		st.ex.UnpinPrices(links)
	}
	delete(st.lastSnap, uint32(dead))
	for x := range st.servedBy {
		if st.servedBy[x] == int32(dead) {
			st.servedBy[x] = int32(st.index)
		}
	}
	st.rebuildBoundaryLocked()
	st.announce = append(st.announce, wire.Takeover{Dead: uint32(dead), By: uint32(st.index)})
	s.stTakeovers.Add(1)
	s.logf("adopted dead daemon %d: %d flows seeded (%d failed), now serving %d shards",
		dead, adopted, failed, st.numServedLocked())
}

// numServedLocked counts the shards this daemon currently serves.
func (st *shardState) numServedLocked() int {
	n := 0
	for _, by := range st.servedBy {
		if by == int32(st.index) {
			n++
		}
	}
	return n
}

// rebuildBoundaryLocked recomputes the boundary arrays after the served
// shard set changed: the boundary becomes the concatenation, in shard
// order, of every served shard's downward links. The dense per-peer
// contribution arrays are remapped by LinkID onto the new layout — links
// present in both keep their imported values, which keeps peers' delta
// digests (whose omitted entries mean "unchanged") correct across the
// rebuild. The engine-visible external loads are zeroed exactly as before:
// the next fold re-sums them from the remapped arrays, and in step-driven
// runs every live peer's bundle arrives before that fold, so the remapped
// values are fully refreshed before they are ever summed.
func (st *shardState) rebuildBoundaryLocked() {
	old := st.boundary
	var b []topology.LinkID
	for x := 0; x < st.smap.NumShards(); x++ {
		if st.servedBy[x] == int32(st.index) {
			b = append(b, st.smap.BoundaryLinks(x)...)
		}
	}
	st.boundary = b
	for i := range st.posOf {
		st.posOf[i] = -1
	}
	for i, l := range st.boundary {
		st.posOf[l] = int32(i)
	}
	for from, oldLoads := range st.peerLoad {
		oldHdiag := st.peerHdiag[from]
		newLoads := make([]float64, len(b))
		newHdiag := make([]float64, len(b))
		for i, l := range old {
			if i >= len(oldLoads) {
				break
			}
			if pos := st.posOf[l]; pos >= 0 {
				newLoads[pos] = oldLoads[i]
				newHdiag[pos] = oldHdiag[i]
			}
		}
		st.peerLoad[from] = newLoads
		st.peerHdiag[from] = newHdiag
	}
	st.extLoad = make([]float64, len(b))
	st.extHdiag = make([]float64, len(b))
	st.snapPrices = make([]float64, len(b))
	clear(st.remoteLinks)
	st.ex.SetExternalLoads(st.boundary, st.extLoad, st.extHdiag)
	st.markResyncPeers()
}

// ServesShard reports whether this daemon currently serves the given shard:
// its own from the start, others after adopting them. Clients use it to
// decide where to re-register a dead shard's flows.
func (s *Server) ServesShard(shard int) bool {
	if s.shard == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return shard >= 0 && shard < len(s.shard.servedBy) && s.shard.servedBy[shard] == int32(s.shard.index)
}
