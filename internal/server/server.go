package server

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/topology"
	"repro/internal/wire"
)

// Config configures a flowtuned daemon.
type Config struct {
	// Topology is the fabric the allocator schedules. Required.
	Topology *topology.Topology
	// Gamma is NED's step size (default 0.4, matching the in-process
	// allocator; the parallel engine defaults to 1 when Blocks > 0).
	Gamma float64
	// UpdateThreshold is the relative rate-change notification threshold
	// (default 0.01). The same fraction of link capacity is withheld as
	// headroom, mirroring core.Config.
	UpdateThreshold float64
	// Interval is the free-running iteration period. Zero disables the
	// internal ticker: iterations then run only when a client sends a
	// Step frame, which is what deterministic end-to-end runs use.
	Interval time.Duration
	// Blocks selects the multicore engine: when positive, the daemon runs
	// the FlowBlock/LinkBlock parallel allocator with Blocks rack blocks
	// (must be a power of two dividing the rack count). Zero selects the
	// sequential allocator. Either engine composes with NumShards: a
	// sharded daemon with Blocks > 0 spans cores within its shard while
	// exchanging boundary prices with its peers.
	Blocks int
	// PinWorkers pins the parallel engine's workers to NUMA sockets and
	// first-touches their merge accumulators node-locally. Only meaningful
	// with Blocks > 0 and a binary built with the `numa` tag on linux
	// (a no-op otherwise; see internal/affinity).
	PinWorkers bool
	// Epoch identifies this allocator generation in the Hello/Welcome
	// handshake (default 1). Restarting operators should bump it so
	// endpoints re-register their flowlets.
	Epoch uint64
	// LatencyWindow is the loop-latency percentile window
	// (default metrics.DefaultLoopWindow).
	LatencyWindow int
	// Logf, when set, receives daemon log lines.
	Logf func(format string, args ...any)

	// MaxSessionFlows caps the number of live flowlets one session may
	// register (0 = unlimited). Adds beyond the cap are dropped at the
	// iteration boundary and counted in Stats.LimitedAdds, so one buggy
	// or hostile endpoint cannot grow the optimizer without bound.
	MaxSessionFlows int
	// MaxFrameRate caps the sustained frame rate of one session in frames
	// per second (0 = unlimited), with a one-second burst allowance. A
	// session exceeding it is disconnected.
	MaxFrameRate float64
	// IdleTimeout disconnects a session that has sent no frame for this
	// long (0 = never). Free-running daemons use it to shed endpoints
	// that died without closing their connection.
	IdleTimeout time.Duration

	// NumShards enables sharded cluster operation: this daemon owns shard
	// ShardIndex of a NumShards-way rack partition of Topology (see
	// topology.ShardMap), accepts only flowlets whose source servers it
	// owns, and exchanges boundary prices with its peers (Server.ConnectPeer)
	// at every iteration boundary. 0 runs the daemon unsharded. Sharding
	// works with both engines — set Blocks > 0 to run a multicore shard.
	NumShards int
	// ShardIndex is this daemon's shard in [0, NumShards).
	ShardIndex int

	// Takeover enables peer-detected shard failover in a sharded cluster:
	// every iteration the daemon replicates its flow state to its successor
	// (the next live shard index), and when a peer daemon dies — its
	// exchange push fails, or (free-running) its heartbeats go stale past
	// HeartbeatTimeout — the dead daemon's successor adopts the orphaned
	// rack block, seeded from the replica and last price snapshot it holds,
	// and announces the takeover to the surviving peers.
	Takeover bool
	// HeartbeatTimeout declares a peer dead when no frame has arrived from
	// it for this long. It only applies to free-running daemons
	// (Interval > 0): step-driven runs detect death solely through the
	// synchronous exchange push, which keeps them deterministic. 0 disables
	// staleness detection.
	HeartbeatTimeout time.Duration

	// QuantizeRates switches protocol-v4 rate fan-out to the paper's Mbps
	// granularity (uvarint Mbps per entry instead of bit-exact
	// xor-compressed float64s). Endpoints then receive rates rounded to
	// 1 Mbps, so it is opt-in (flowtuned -wire-quantize): the default
	// lossless mode keeps allocation math and committed baselines
	// byte-identical. v3 sessions are unaffected either way.
	QuantizeRates bool
}

// Stats is a snapshot of daemon counters.
type Stats struct {
	// SessionsAccepted counts handshakes completed; SessionsActive is the
	// current session count.
	SessionsAccepted int64
	SessionsActive   int64
	// EventsReceived counts FlowletAdd/FlowletEnd frames accepted into
	// the inbox.
	EventsReceived int64
	// DuplicateAdds and UnknownEnds count events dropped at the
	// iteration boundary because the flow was already (or not)
	// registered; RejectedAdds count adds the engine refused (bad route).
	DuplicateAdds int64
	UnknownEnds   int64
	RejectedAdds  int64
	// UpdatesSent counts rate-update entries written to clients;
	// UpdatesCoalesced counts updates overwritten by a newer rate before
	// a slow client drained them (the backpressure policy); BatchesSent
	// counts rate frames written (RateBatch or RateDelta).
	UpdatesSent      int64
	UpdatesCoalesced int64
	BatchesSent      int64
	// LimitedAdds counts adds dropped because the session hit
	// Config.MaxSessionFlows.
	LimitedAdds int64
	// PeerExchanges counts boundary-exchange bundles folded in from peer
	// shards; PeerRejected counts peer frames or entries dropped as
	// invalid (wrong owner, unknown link, stale epoch).
	PeerExchanges int64
	PeerRejected  int64
	// AdoptedFlows counts flowlets whose ownership was transferred without
	// engine churn: restored, replica-seeded, or drain-orphaned flows
	// claimed by a reconnecting client's re-registration.
	AdoptedFlows int64
	// Takeovers counts dead peer shards this daemon adopted.
	Takeovers int64
	// DrainRejects counts flowlet adds refused because the daemon was
	// draining.
	DrainRejects int64
	// ExchangeFolds counts peer exchange messages folded into an
	// iteration; ExchangeStalenessIters sums, over those folds, how many
	// iterations old each message's originating sequence number was at
	// fold time (clamped at zero for free-running daemons that fold a
	// peer's newer bundle). ExchangeStalenessIters/ExchangeFolds is the
	// mean boundary-price staleness in allocator iterations — the
	// paper's control-loop freshness budget, observable per daemon.
	ExchangeFolds          int64
	ExchangeStalenessIters int64
	// FanoutBytes counts rate-update bytes actually written to clients
	// (RateBatch or RateDelta frames); FanoutBytesFixed counts the bytes
	// the same updates would have cost as fixed v3 RateBatch frames, so
	// FanoutBytesFixed/FanoutBytes is the fan-out compression ratio.
	FanoutBytes      int64
	FanoutBytesFixed int64
	// ExchangeBytes counts PriceDigest/PriceSnapshot (or their v4 delta
	// forms) bytes built into peer exchange bundles; ExchangeBytesFixed
	// counts the fixed v3 cost of the same boundary state. Both are
	// accumulated at bundle-build time, so step-driven runs count them
	// deterministically.
	ExchangeBytes      int64
	ExchangeBytesFixed int64
}

// event is one flowlet notification waiting for the next iteration boundary.
type event struct {
	end      bool
	flow     core.FlowID
	src, dst int
	weight   float64
	// size is the wire v4 flowlet-size hint in bytes (0 = unknown).
	size int64
	sess *session
	// cleanup marks an orphan-retirement event generated when sess
	// disconnected. It only applies while sess still owns the flow: if a
	// reconnected client re-registered the flow under a new session before
	// the sweep ran, the stale cleanup must not retire it.
	cleanup bool
}

// Server is the flowtuned allocator daemon: it owns the optimizer, drains
// client flowlet notifications at iteration boundaries (the paper's "updates
// are folded in between iterations" design), and fans rate updates back out
// to the sessions that registered the flows.
type Server struct {
	cfg  Config
	eng  engine
	loop *metrics.LoopRecorder

	mu       sync.Mutex
	sessions map[*session]struct{}
	// conns tracks every connection handed to ServeConn, including ones
	// still mid-handshake, so Close can unblock their readers.
	conns map[net.Conn]struct{}
	// flows is the per-flow state: owner, registration, pending rate and
	// last-sent shadow, in dense slots (see flowtable.go).
	flows    flowTable
	inbox    []event
	seq      uint64 // iteration counter
	closed   bool
	draining bool

	done chan struct{}
	wg   sync.WaitGroup

	lnMu      sync.Mutex
	listeners []net.Listener

	stSessions  atomic.Int64
	stActive    atomic.Int64
	stEvents    atomic.Int64
	stDupAdds   atomic.Int64
	stUnknown   atomic.Int64
	stRejected  atomic.Int64
	stUpdates   atomic.Int64
	stCoalesced atomic.Int64
	stBatches   atomic.Int64
	stLimited   atomic.Int64
	stPeerEx    atomic.Int64
	stPeerRej   atomic.Int64
	stAdopted   atomic.Int64
	stTakeovers atomic.Int64
	stDrainRej  atomic.Int64
	stExchFolds atomic.Int64
	stExchStale atomic.Int64

	stFanoutBytes atomic.Int64
	stFanoutFixed atomic.Int64
	stExchBytes   atomic.Int64
	stExchFixed   atomic.Int64

	// telemetry is the optional observability hook (registry series written
	// in the loop plus the convergence flight recorder), nil until
	// RegisterMetrics or AttachFlightRecorder wires it. Guarded by mu.
	telemetry *serverTelemetry

	// epoch is the allocator generation announced in handshakes; BumpEpoch
	// advances it mid-run and notifies connected clients.
	epoch atomic.Uint64

	// shard is the sharded-cluster state, nil for an unsharded daemon.
	shard *shardState
}

// New creates a daemon. The caller owns serving: pass a listener to Serve,
// or individual connections (e.g. net.Pipe ends) to ServeConn.
func New(cfg Config) (*Server, error) {
	if cfg.Topology == nil {
		return nil, fmt.Errorf("server: Config.Topology is required")
	}
	if cfg.UpdateThreshold == 0 {
		cfg.UpdateThreshold = 0.01
	}
	if cfg.UpdateThreshold < 0 || cfg.UpdateThreshold >= 1 {
		return nil, fmt.Errorf("server: UpdateThreshold must be in [0,1), got %g", cfg.UpdateThreshold)
	}
	if cfg.Epoch == 0 {
		cfg.Epoch = 1
	}
	if cfg.MaxSessionFlows < 0 || cfg.MaxFrameRate < 0 || cfg.IdleTimeout < 0 {
		return nil, fmt.Errorf("server: session limits must be non-negative")
	}
	var eng engine
	var err error
	if cfg.Blocks > 0 {
		eng, err = newParallelEngine(cfg)
	} else {
		eng, err = newCoreEngine(cfg)
	}
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		eng:      eng,
		loop:     metrics.NewLoopRecorder(cfg.LatencyWindow),
		sessions: make(map[*session]struct{}),
		conns:    make(map[net.Conn]struct{}),
		done:     make(chan struct{}),
	}
	s.epoch.Store(cfg.Epoch)
	if cfg.NumShards > 0 {
		s.shard, err = newShardState(cfg, eng)
		if err != nil {
			eng.Close()
			return nil, err
		}
	} else if cfg.NumShards < 0 || cfg.ShardIndex != 0 {
		eng.Close()
		return nil, fmt.Errorf("server: invalid shard configuration %d/%d", cfg.ShardIndex, cfg.NumShards)
	}
	if cfg.Interval > 0 {
		s.wg.Add(1)
		go s.tickLoop()
	}
	return s, nil
}

// logf logs through the configured sink.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Epoch returns the daemon's allocator epoch.
func (s *Server) Epoch() uint64 { return s.epoch.Load() }

// BumpEpoch advances the daemon's allocator epoch (it must be greater than
// the current one) and pushes an EpochNotify frame to every connected
// protocol-v2 client, so endpoints learn about an allocator state reset
// without waiting for a failed write; they respond by re-registering their
// flowlets (transport.AllocClient.Reconnect). Operators use it after
// swapping allocator state under a live daemon.
func (s *Server) BumpEpoch(epoch uint64) error {
	for {
		cur := s.epoch.Load()
		if epoch <= cur {
			return fmt.Errorf("server: epoch %d does not advance current epoch %d", epoch, cur)
		}
		if s.epoch.CompareAndSwap(cur, epoch) {
			break
		}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return net.ErrClosed
	}
	notify := make([]*session, 0, len(s.sessions))
	for sess := range s.sessions {
		if sess.version >= 2 {
			notify = append(notify, sess)
		}
	}
	// Register the notifier goroutines under s.mu, like session writers, so
	// Close cannot start waiting between the check above and the Add.
	s.wg.Add(len(notify))
	s.mu.Unlock()
	frame := wire.AppendEpochNotify(nil, wire.EpochNotify{Epoch: epoch})
	for _, sess := range notify {
		// One goroutine per session: a slow or dead client must not stall
		// the operator path or its peers (frame is never written to, so
		// sharing it is safe).
		go func() {
			defer s.wg.Done()
			// The epoch bump resets the client's view (it re-registers its
			// flowlets), so the delta fan-out must re-baseline: drop the
			// last-sent shadow before the notify so every later rate is
			// sent in full.
			s.mu.Lock()
			s.flows.clearShadow(sess)
			s.mu.Unlock()
			if err := sess.write(frame); err != nil {
				s.removeSession(sess)
			}
		}()
	}
	s.logf("epoch bumped to %d (%d clients notified)", epoch, len(notify))
	return nil
}

// NumFlows returns the number of currently registered flowlets.
func (s *Server) NumFlows() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.NumFlows()
}

// Iterations returns the number of allocator iterations run so far.
func (s *Server) Iterations() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// LoopStats returns allocator-loop latency and throughput statistics.
func (s *Server) LoopStats() metrics.LoopStats { return s.loop.Snapshot() }

// Stats returns a snapshot of daemon counters.
func (s *Server) Stats() Stats {
	return Stats{
		SessionsAccepted: s.stSessions.Load(),
		SessionsActive:   s.stActive.Load(),
		EventsReceived:   s.stEvents.Load(),
		DuplicateAdds:    s.stDupAdds.Load(),
		UnknownEnds:      s.stUnknown.Load(),
		RejectedAdds:     s.stRejected.Load(),
		UpdatesSent:      s.stUpdates.Load(),
		UpdatesCoalesced: s.stCoalesced.Load(),
		BatchesSent:      s.stBatches.Load(),
		LimitedAdds:      s.stLimited.Load(),
		PeerExchanges:    s.stPeerEx.Load(),
		PeerRejected:     s.stPeerRej.Load(),
		AdoptedFlows:     s.stAdopted.Load(),
		Takeovers:        s.stTakeovers.Load(),
		DrainRejects:     s.stDrainRej.Load(),

		ExchangeFolds:          s.stExchFolds.Load(),
		ExchangeStalenessIters: s.stExchStale.Load(),

		FanoutBytes:        s.stFanoutBytes.Load(),
		FanoutBytesFixed:   s.stFanoutFixed.Load(),
		ExchangeBytes:      s.stExchBytes.Load(),
		ExchangeBytesFixed: s.stExchFixed.Load(),
	}
}

// SetLinkCapacity changes one fabric link's raw capacity in the daemon's
// engine. It serializes with the iteration loop under the server mutex, so a
// call between steps of a step-driven daemon lands at an exact iteration
// boundary and the very next Iterate re-prices the link — no engine rebuild,
// no flow churn. Closed daemons reject the call so a cluster-wide broadcast
// can skip dead shards explicitly.
func (s *Server) SetLinkCapacity(l topology.LinkID, capacity float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return net.ErrClosed
	}
	return s.eng.SetLinkCapacity(l, capacity)
}

// Rates returns the engine's current rates keyed by flow ID (a diagnostic
// mirror of core.Allocator.Rates).
func (s *Server) Rates() map[core.FlowID]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.Rates()
}

// tickLoop drives free-running iterations every cfg.Interval.
func (s *Server) tickLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
			s.iterate(nil, 0)
			// The session writers this iteration kicked need s.mu to copy
			// their rates out. Yield so they run before the next tick (or
			// its timer wake-up) can take the mutex again; without it a
			// writer can wait out a whole further iteration and its rates
			// coalesce into the next one.
			runtime.Gosched()
		}
	}
}

// Serve accepts sessions from ln until the daemon is closed. It always
// returns a non-nil error; after Close it returns net.ErrClosed.
func (s *Server) Serve(ln net.Listener) error {
	s.lnMu.Lock()
	if s.isClosed() {
		s.lnMu.Unlock()
		ln.Close()
		return net.ErrClosed
	}
	s.listeners = append(s.listeners, ln)
	s.lnMu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.isClosed() {
				return net.ErrClosed
			}
			return err
		}
		// The closed check and wg.Add share the mutex Close uses to set
		// closed, so an Add can never start while Close is in wg.Wait.
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return net.ErrClosed
		}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.ServeConn(conn)
		}()
	}
}

// isClosed reports whether Close has been called.
func (s *Server) isClosed() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// Close shuts the daemon down: listeners stop accepting, sessions are torn
// down, the ticker stops, and the engine is released. It is idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.done)
	// Closing every served conn (sessions and mid-handshake readers alike)
	// unblocks their goroutines so wg.Wait below cannot hang on a silent
	// peer that never completed its Hello.
	conns := make([]net.Conn, 0, len(s.conns))
	for conn := range s.conns {
		conns = append(conns, conn)
	}
	s.mu.Unlock()

	s.lnMu.Lock()
	for _, ln := range s.listeners {
		ln.Close()
	}
	s.listeners = nil
	s.lnMu.Unlock()

	for _, conn := range conns {
		conn.Close()
	}
	if s.shard != nil {
		// Closing outbound peer connections unblocks any iteration waiting
		// on an exchange ack.
		s.shard.closePeers()
	}
	s.wg.Wait()

	s.mu.Lock()
	s.eng.Close()
	s.mu.Unlock()
	return nil
}

// ---------------------------------------------------------------------------
// Sessions

// session is one connected endpoint client.
type session struct {
	srv  *Server
	conn net.Conn
	id   uint64 // client label from Hello
	// version is the protocol version the client announced; v2 frames
	// (EpochNotify) are only pushed to sessions that understand them.
	version uint16

	// Write side: wmu serializes frame writes; wbuf is the reused
	// synchronous-path encode buffer. Lock order is wmu, then srv.mu;
	// nothing takes wmu while holding srv.mu.
	wmu  sync.Mutex
	wbuf []byte

	// Asynchronous fan-out with coalescing backpressure: the flow table
	// holds at most one pending rate per flow (latest wins) and dirty lists
	// the slots that have one, so a slow client bounds daemon memory at
	// O(its flows) and always catches up to the *current* allocation, never
	// a backlog of stale ones. dirty, pendingSeq and nflows (the number of
	// flows the session owns) are guarded by srv.mu.
	dirty      []int32
	pendingSeq uint64
	nflows     int
	kick       chan struct{}
	done       chan struct{}

	// fanBuf and fanEntries are the writer's reused encode buffer and entry
	// scratch; replyEntries is the step-reply path's (the two paths run on
	// different goroutines). Reusing them pins steady-state fan-out at
	// 0 allocs/op (see BenchmarkFanoutFlush and BenchmarkStepReply).
	fanBuf       []byte
	fanEntries   []wire.RateEntry
	replyEntries []wire.RateEntry
}

// ServeConn runs one client session over conn (any net.Conn: loopback TCP
// from Serve, or an in-memory net.Pipe end for deterministic tests). It
// blocks until the peer disconnects or the daemon closes, and returns the
// reason the session ended.
func (s *Server) ServeConn(conn net.Conn) error {
	defer conn.Close()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return net.ErrClosed
	}
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	sc := wire.NewScanner(conn)

	// Handshake: the first frame must be a compatible Hello — or, on a
	// sharded daemon, a PeerHello opening a shard-to-shard session. The
	// idle timeout covers this first read too, so a connection that never
	// completes its handshake cannot pin a goroutine forever.
	if s.cfg.IdleTimeout > 0 {
		if err := conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout)); err != nil {
			return fmt.Errorf("server: handshake: %w", err)
		}
	}
	typ, payload, err := sc.Next()
	if err != nil {
		return fmt.Errorf("server: handshake read: %w", err)
	}
	if typ == wire.TypePeerHello {
		// Peer sessions are push-driven by the remote daemon's iteration
		// cadence, which this daemon cannot predict; lift the deadline.
		if s.cfg.IdleTimeout > 0 {
			if err := conn.SetReadDeadline(time.Time{}); err != nil {
				return fmt.Errorf("server: handshake: %w", err)
			}
		}
		return s.servePeer(conn, sc, payload)
	}
	if typ != wire.TypeHello {
		return fmt.Errorf("server: handshake: expected hello, got %s", typ)
	}
	hello, err := wire.DecodeHello(payload)
	if err != nil {
		return fmt.Errorf("server: handshake: %w", err)
	}
	if hello.Version > wire.Version {
		return fmt.Errorf("server: client speaks protocol v%d, daemon supports v%d", hello.Version, wire.Version)
	}

	sess := &session{
		srv:     s,
		conn:    conn,
		id:      hello.ClientID,
		version: hello.Version,
		kick:    make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return net.ErrClosed
	}
	s.sessions[sess] = struct{}{}
	s.wg.Add(1) // writer goroutine; under s.mu so it cannot race Close's Wait
	s.mu.Unlock()
	s.stSessions.Add(1)
	s.stActive.Add(1)
	defer s.removeSession(sess)
	go func() {
		defer s.wg.Done()
		sess.writer()
	}()

	// Advertise the highest version both sides speak, so old clients keep
	// working and are never sent v2 frames.
	version := uint16(wire.Version)
	if hello.Version < version {
		version = hello.Version
	}
	welcome := wire.AppendWelcome(nil, wire.Welcome{
		Version:       version,
		Epoch:         s.Epoch(),
		IntervalNanos: uint64(s.cfg.Interval),
	})
	if err := sess.write(welcome); err != nil {
		return fmt.Errorf("server: handshake write: %w", err)
	}
	s.logf("session %d connected from %v", sess.id, conn.RemoteAddr())

	// Frame-rate policing: a token bucket refilled at MaxFrameRate with a
	// one-second burst allowance (floored at one frame, so sub-1 rates
	// throttle instead of disconnecting every client on its first frame).
	var tokens, burst float64
	var lastRefill time.Time
	if s.cfg.MaxFrameRate > 0 {
		burst = s.cfg.MaxFrameRate
		if burst < 1 {
			burst = 1
		}
		tokens = burst
		lastRefill = time.Now()
	}
	for {
		if s.cfg.IdleTimeout > 0 {
			if err := conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout)); err != nil {
				return fmt.Errorf("server: session %d: %w", sess.id, err)
			}
		}
		typ, payload, err := sc.Next()
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrClosedPipe) {
				return nil
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				return fmt.Errorf("server: session %d: idle for %v, disconnecting", sess.id, s.cfg.IdleTimeout)
			}
			return fmt.Errorf("server: session %d: %w", sess.id, err)
		}
		if s.cfg.MaxFrameRate > 0 {
			now := time.Now()
			tokens += now.Sub(lastRefill).Seconds() * s.cfg.MaxFrameRate
			if tokens > burst {
				tokens = burst
			}
			lastRefill = now
			if tokens < 1 {
				return fmt.Errorf("server: session %d: frame rate exceeded %g frames/s, disconnecting", sess.id, s.cfg.MaxFrameRate)
			}
			tokens--
		}
		switch typ {
		case wire.TypeFlowletAdd:
			m, err := wire.DecodeFlowletAdd(payload)
			if err != nil {
				return fmt.Errorf("server: session %d: %w", sess.id, err)
			}
			if m.Size != 0 && sess.version < 4 {
				return fmt.Errorf("server: session %d: sized flowlet-add on a v%d session", sess.id, sess.version)
			}
			s.enqueue(event{
				flow:   core.FlowID(m.Flow),
				src:    int(m.Src),
				dst:    int(m.Dst),
				weight: m.Weight,
				size:   m.Size,
				sess:   sess,
			})
		case wire.TypeFlowletEnd:
			m, err := wire.DecodeFlowletEnd(payload)
			if err != nil {
				return fmt.Errorf("server: session %d: %w", sess.id, err)
			}
			s.enqueue(event{end: true, flow: core.FlowID(m.Flow), sess: sess})
		case wire.TypeStep:
			m, err := wire.DecodeStep(payload)
			if err != nil {
				return fmt.Errorf("server: session %d: %w", sess.id, err)
			}
			if err := s.iterate(sess, m.Seq); err != nil {
				return err
			}
		default:
			return fmt.Errorf("server: session %d: unexpected %s frame", sess.id, typ)
		}
	}
}

// enqueue appends a flowlet event to the inbox; it is folded into the
// allocator at the next iteration boundary.
func (s *Server) enqueue(ev event) {
	s.stEvents.Add(1)
	s.mu.Lock()
	s.inbox = append(s.inbox, ev)
	s.mu.Unlock()
}

// removeSession detaches a session and schedules cleanup of its flowlets:
// every flow it still owns is retired at the next iteration boundary, so a
// crashed endpoint's flowlets do not hold fabric shares forever.
func (s *Server) removeSession(sess *session) {
	s.mu.Lock()
	if _, ok := s.sessions[sess]; !ok {
		s.mu.Unlock()
		return
	}
	delete(s.sessions, sess)
	var orphans []core.FlowID
	if s.draining {
		// A draining daemon keeps disconnected clients' flows registered:
		// they are about to be written to the snapshot (and have already
		// been replicated to the successor shard), so a cleanup sweep here
		// would retire exactly the flows a restarted or adopting daemon
		// needs. Clients fail over warm at last-known rates regardless.
		// The flows become unowned, claimable by a reconnecting client.
		s.flows.disown(sess)
	} else {
		orphans = s.flows.owned(sess)
		for _, id := range orphans {
			s.inbox = append(s.inbox, event{end: true, flow: id, sess: sess, cleanup: true})
		}
	}
	s.mu.Unlock()
	close(sess.done)
	sess.conn.Close()
	s.stActive.Add(-1)
	s.logf("session %d disconnected (%d flowlets scheduled for cleanup)", sess.id, len(orphans))
}

// write sends one pre-encoded frame buffer on the session connection.
func (sess *session) write(frame []byte) error {
	sess.wmu.Lock()
	defer sess.wmu.Unlock()
	_, err := sess.conn.Write(frame)
	return err
}

// queueUpdate records a rate update for asynchronous delivery in the flow's
// slot, coalescing with any undelivered rate for the same flow (latest rate
// wins). The writer is kicked when the session's dirty list becomes
// non-empty; until it copies the list out, later updates only join it.
// Called with srv.mu held.
func (sess *session) queueUpdate(sl *flowSlot, slot int32, rate float64, seq uint64) {
	if sl.flags&slotPending != 0 {
		sess.srv.stCoalesced.Add(1)
	} else {
		sl.flags |= slotPending
		if len(sess.dirty) == 0 {
			select {
			case sess.kick <- struct{}{}:
			default:
			}
		}
		sess.dirty = append(sess.dirty, slot)
	}
	sl.pending = rate
	sess.pendingSeq = seq
}

// writer drains the session's pending rates into rate frames. One goroutine
// per session, so a slow client never blocks the allocator loop or its
// peers.
func (sess *session) writer() {
	for {
		select {
		case <-sess.done:
			return
		case <-sess.kick:
		}
		if !sess.flushPending() {
			sess.srv.removeSession(sess)
			return
		}
	}
}

// shadowBits is the value the last-sent shadow compares: the rate's float64
// bit pattern, or its quantized Mbps when the daemon quantizes v4 fan-out.
func (sess *session) shadowBits(rate float64) uint64 {
	if sess.srv.cfg.QuantizeRates {
		return wire.QuantizeRate(rate)
	}
	return math.Float64bits(rate)
}

// appendRates encodes entries as one rate frame in the session's protocol:
// a RateDelta on v4, a fixed RateBatch before.
func (sess *session) appendRates(buf []byte, seq uint64, entries []wire.RateEntry) []byte {
	if sess.version >= 4 {
		return wire.AppendRateDelta(buf, seq, sess.srv.cfg.QuantizeRates, entries)
	}
	return wire.AppendRateBatch(buf, seq, entries)
}

// maxEntries is the session's per-frame entry limit.
func (sess *session) maxEntries() int {
	if sess.version >= 4 {
		return maxRateDeltaEntries
	}
	return maxBatchEntries
}

// flushPending drains the session's dirty slots into one burst of RateBatch
// (v3) or RateDelta (v4) frames, reporting false on a write error. The writer
// holds wmu for the whole flush and takes srv.mu only to copy its pending
// rates out (and update the last-sent shadow): once a step reply (written
// under wmu) has purged a superseded rate from the table, no stale copy of
// it can reach the wire afterwards. Buffers and entry scratch live on the
// session, so the steady state allocates nothing.
func (sess *session) flushPending() bool {
	srv := sess.srv
	sess.wmu.Lock()
	defer sess.wmu.Unlock()
	srv.mu.Lock()
	delta := sess.version >= 4
	drained := 0
	entries := sess.fanEntries[:0]
	slots := srv.flows.slots
	for _, slot := range sess.dirty {
		sl := &slots[slot]
		// Slots freed (or re-owned) since they were queued, and duplicates
		// of a freed slot reused by this session, are skipped here.
		if sl.owner != sess || sl.flags&slotPending == 0 {
			continue
		}
		sl.flags &^= slotPending
		drained++
		if delta {
			// Skip flows whose rate is unchanged since this session's last
			// sent value. The engine's own notification threshold already
			// suppresses unchanged rates at the source, so this almost
			// never fires in lossless mode — but quantization collapses
			// nearby rates, and the shadow is what makes that cheap.
			bits := sess.shadowBits(sl.pending)
			if sl.flags&slotShadow != 0 && sl.shadow == bits {
				continue
			}
			sl.shadow = bits
			sl.flags |= slotShadow
		}
		entries = append(entries, wire.RateEntry{Flow: int64(sl.id), Rate: sl.pending})
	}
	sess.dirty = sess.dirty[:0]
	seq := sess.pendingSeq
	srv.mu.Unlock()
	sess.fanEntries = entries
	if drained == 0 {
		return true
	}
	srv.stFanoutFixed.Add(fixedRateBytes(drained))
	if len(entries) == 0 {
		return true
	}
	// Deterministic wire order regardless of queueing order (and small flow
	// deltas for the v4 encoding), chunked to the per-frame entry limit.
	slices.SortFunc(entries, func(a, b wire.RateEntry) int {
		return cmp.Compare(a.Flow, b.Flow)
	})
	maxChunk := sess.maxEntries()
	buf := sess.fanBuf
	writeErr := false
	var sent int64
	for start := 0; start < len(entries); start += maxChunk {
		end := min(start+maxChunk, len(entries))
		buf = sess.appendRates(buf[:0], seq, entries[start:end])
		sent += int64(len(buf))
		if _, err := sess.conn.Write(buf); err != nil {
			writeErr = true
			break
		}
		srv.stBatches.Add(1)
		srv.stUpdates.Add(int64(end - start))
	}
	sess.fanBuf = buf
	srv.stFanoutBytes.Add(sent)
	return !writeErr
}

// fixedRateBytes is the wire cost of n rate updates as fixed v3 RateBatch
// frames with v3 chunking — the baseline of the FanoutBytesFixed counter.
func fixedRateBytes(n int) int64 {
	if n == 0 {
		return int64(wire.RateBatchSize(0))
	}
	var b int64
	for n > 0 {
		c := min(n, maxBatchEntries)
		b += int64(wire.RateBatchSize(c))
		n -= c
	}
	return b
}

// ---------------------------------------------------------------------------
// The allocator loop

// iterate runs one allocator iteration: drain the inbox, step the engine,
// and fan updates out. When stepper is non-nil the iteration was requested
// by a Step frame and the stepper synchronously receives a reply batch
// (possibly empty) echoing stepSeq with wire.StepReplyFlag set; updates owned
// by other sessions go through their asynchronous writers.
func (s *Server) iterate(stepper *session, stepSeq uint64) error {
	if s.shard != nil {
		// Serialize the whole fold → iterate → exchange sequence across
		// concurrent iterations so peers always observe bundles in
		// iteration order.
		s.shard.sendMu.Lock()
		defer s.shard.sendMu.Unlock()
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return net.ErrClosed
	}
	if s.shard != nil {
		s.foldExchangeLocked()
		if s.shard.takeover {
			s.processDeathsLocked()
		}
	}
	churn := len(s.inbox)
	s.drainInboxLocked()

	start := time.Now()
	updates := s.eng.Iterate()
	latency := time.Since(start)
	s.seq++
	seq := s.seq
	s.loop.Record(latency.Seconds(), len(updates))
	if s.telemetry != nil {
		s.recordTelemetryLocked(seq, latency.Seconds(), len(updates), churn)
	}

	// One walk over the updates routes each through its flow's slot. The
	// stepper's rates are collected for the reply in engine update order
	// (v4 zigzag flow deltas cost one extra bit for unsorted IDs, never
	// correctness, and the order keeps decoded update sequences identical
	// to the v3 wire); they supersede anything still queued for
	// asynchronous delivery from interleaved ticker iterations, so the
	// pending bit is cleared and the writer cannot emit a stale rate after
	// the reply. On v4 the reply also records the last-sent shadow, so a
	// later asynchronous flush can suppress a resend of the identical rate.
	// Step replies themselves never consult the shadow — every update the
	// engine surfaces reaches the stepping client, keeping step-driven runs
	// (and the committed baselines) byte-identical across versions. Other
	// owners' rates are queued for their writers.
	var entries []wire.RateEntry
	shadowReply := false
	if stepper != nil {
		entries = stepper.replyEntries[:0]
		shadowReply = stepper.version >= 4
	}
	slots := s.flows.slots
	for _, u := range updates {
		sl := &slots[u.Slot]
		switch owner := sl.owner; {
		case owner == nil:
		case owner == stepper:
			entries = append(entries, wire.RateEntry{Flow: int64(u.Flow), Rate: u.Rate})
			sl.flags &^= slotPending
			if shadowReply {
				sl.shadow = stepper.shadowBits(u.Rate)
				sl.flags |= slotShadow
			}
		default:
			owner.queueUpdate(sl, u.Slot, u.Rate, seq)
		}
	}

	var reply []byte
	replyBatches := 0
	if stepper != nil {
		stepper.replyEntries = entries
		// Chunk oversized update sets so no frame exceeds the uint24
		// payload limit. Non-final chunks carry the iteration sequence
		// (the client folds them in like asynchronous fan-out); only the
		// final chunk carries the step-reply barrier.
		reply = stepper.wbuf[:0]
		if len(entries) == 0 {
			reply = stepper.appendRates(reply, stepSeq|wire.StepReplyFlag, nil)
			replyBatches = 1
		}
		maxChunk := stepper.maxEntries()
		for start := 0; start < len(entries); start += maxChunk {
			end := min(start+maxChunk, len(entries))
			hdrSeq := seq
			if end == len(entries) {
				hdrSeq = stepSeq | wire.StepReplyFlag
			}
			reply = stepper.appendRates(reply, hdrSeq, entries[start:end])
			replyBatches++
		}
		stepper.wbuf = reply
	}
	var peers []*peerConn
	if s.shard != nil {
		peers = s.buildExchangeLocked(seq)
	}
	s.mu.Unlock()

	// Push the boundary exchange before replying to a stepper: once the
	// step returns, this iteration's digests and snapshots are guaranteed
	// to sit in every live peer's inbox, which is what makes step-driven
	// cluster runs deterministic.
	if len(peers) > 0 {
		s.sendExchange(peers)
	}

	if stepper != nil {
		// Count before writing: the write returning is what unblocks the
		// stepping client, so a client sampling Stats right after Step must
		// already see this reply (benchmark counters stay deterministic).
		s.stBatches.Add(int64(replyBatches))
		s.stUpdates.Add(int64(len(entries)))
		s.stFanoutBytes.Add(int64(len(reply)))
		s.stFanoutFixed.Add(fixedRateBytes(len(entries)))
		if err := stepper.write(reply); err != nil {
			return fmt.Errorf("server: session %d: step reply: %w", stepper.id, err)
		}
	}
	return nil
}

// maxBatchEntries bounds entries per RateBatch frame (a variable so tests
// can exercise chunking without a million flows).
var maxBatchEntries = wire.MaxBatchEntries

// maxRateDeltaEntries bounds entries per RateDelta frame, sized for the
// worst-case (incompressible) entry so a full chunk can never overflow the
// uint24 payload. A variable for the same testing reason as above.
var maxRateDeltaEntries = wire.MaxRateDeltaEntries

// drainInboxLocked folds pending flowlet events into the engine, in arrival
// order, with duplicate/unknown defense. This is where flow IDs are resolved
// to flow-table slots. Called with s.mu held.
func (s *Server) drainInboxLocked() {
	for _, ev := range s.inbox {
		slot, known := s.flows.index[ev.flow]
		if ev.end {
			if !known {
				s.stUnknown.Add(1)
				continue
			}
			if ev.cleanup && s.flows.slots[slot].owner != ev.sess {
				// Stale orphan sweep: the flow was re-registered (by a
				// reconnected client under a new session) after the dead
				// session's cleanup was scheduled. The new owner's
				// registration stands.
				continue
			}
			if err := s.eng.FlowletEnd(ev.flow); err != nil {
				s.logf("flowlet %d end: %v", ev.flow, err)
				continue
			}
			// Freeing the slot drops any undelivered rate and the delta
			// shadow: a later flowlet reusing this ID must get its first
			// rate on the wire even if it equals the retired flow's last.
			s.flows.remove(slot)
			continue
		}
		if known {
			// Adoption without churn: a flow restored from a snapshot, seeded
			// from a peer replica, or left by a client that disconnected from
			// a draining daemon sits in the engine unowned. When a
			// reconnecting client re-registers it with the same route and
			// weight, ownership transfers in place — the engine never sees a
			// retire/re-add pair, so prices and rates are undisturbed and a
			// warm restart costs zero registrations.
			sl := &s.flows.slots[slot]
			if sl.owner != nil || ev.sess == nil {
				s.stDupAdds.Add(1)
				continue
			}
			if int(sl.src) == ev.src && int(sl.dst) == ev.dst && sl.weight == ev.weight {
				if _, live := s.sessions[ev.sess]; live {
					s.flows.setOwner(slot, ev.sess)
					s.stAdopted.Add(1)
				}
				continue
			}
			// Same ID, different registration: the stored flow is stale.
			// Retire it and fall through to a fresh registration.
			if err := s.eng.FlowletEnd(ev.flow); err != nil {
				s.logf("flowlet %d stale-adopt end: %v", ev.flow, err)
				continue
			}
			s.flows.remove(slot)
		}
		if s.draining {
			// A draining daemon admits no new flowlets: it is about to hand
			// its state to a successor, and anything admitted now would miss
			// the snapshot already replicated to peers.
			s.stDrainRej.Add(1)
			continue
		}
		if ev.sess != nil {
			if _, live := s.sessions[ev.sess]; !live {
				// The registering session disconnected before this add
				// was folded in; its one-shot cleanup has already run,
				// so registering now would leak the flow forever.
				s.stRejected.Add(1)
				continue
			}
			if s.cfg.MaxSessionFlows > 0 && ev.sess.nflows >= s.cfg.MaxSessionFlows {
				s.stLimited.Add(1)
				s.logf("flowlet %d add dropped: session %d at its %d-flow limit", ev.flow, ev.sess.id, s.cfg.MaxSessionFlows)
				continue
			}
		}
		if s.shard != nil && !s.shard.ownsFlow(ev.src, ev.dst) {
			// A sharded daemon allocates only flowlets sourced in its own
			// racks; anything else belongs to a peer and registering it
			// here would double-allocate its path.
			s.stRejected.Add(1)
			s.logf("flowlet %d add rejected: server %d is not owned by shard %d/%d", ev.flow, ev.src, s.cfg.ShardIndex, s.cfg.NumShards)
			continue
		}
		if err := s.admitLocked(ev.flow, ev.src, ev.dst, ev.weight, ev.size, ev.sess); err != nil {
			s.stRejected.Add(1)
			s.logf("flowlet %d add rejected: %v", ev.flow, err)
		}
	}
	s.inbox = s.inbox[:0]
}

// admitLocked registers a new flowlet with the engine and the flow table;
// owner nil admits it unowned (snapshot restore, replica adoption). Called
// with s.mu held.
func (s *Server) admitLocked(id core.FlowID, src, dst int, weight float64, size int64, owner *session) error {
	if err := s.eng.FlowletStart(id, src, dst, weight, size, s.flows.nextSlot()); err != nil {
		return err
	}
	s.flows.insert(id, owner, src, dst, weight)
	return nil
}
