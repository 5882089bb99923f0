package server

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/wire"
)

// This file checks the daemon's flow bookkeeping against a small map-based
// reference model: seeded random sequences of client operations run over
// net.Pipe against a step-driven daemon, and after every operation the
// daemon's counters, its flow set and every connected client's held rates
// must match what the model predicts.

// refFlow is the model's record of one registered flow.
type refFlow struct {
	owner    int // model session, -1 while unowned
	src, dst int
	weight   float64
}

// refEvent is one flowlet event in the model's inbox.
type refEvent struct {
	end, cleanup bool
	flow         core.FlowID
	src, dst     int
	weight       float64
	sess         int
}

// refModel mirrors the daemon's fold rules with plain maps.
type refModel struct {
	limit    int
	draining bool
	live     map[core.FlowID]refFlow
	owned    map[int]int
	sessions map[int]bool
	inbox    []refEvent
	next     int // next session number

	events, dup, unknown, adopted, limited, rejected, drainRej int64
}

func newRefModel(limit int) *refModel {
	return &refModel{
		limit:    limit,
		live:     make(map[core.FlowID]refFlow),
		owned:    make(map[int]int),
		sessions: make(map[int]bool),
	}
}

// connect opens a model session.
func (m *refModel) connect() int {
	m.next++
	m.sessions[m.next] = true
	return m.next
}

// disconnect closes a session: a draining daemon keeps its flows unowned,
// anything else schedules their cleanup in flow-ID order.
func (m *refModel) disconnect(sess int) {
	delete(m.sessions, sess)
	var ids []core.FlowID
	for id, f := range m.live {
		if f.owner == sess {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	for _, id := range ids {
		if m.draining {
			f := m.live[id]
			f.owner = -1
			m.live[id] = f
		} else {
			m.inbox = append(m.inbox, refEvent{end: true, cleanup: true, flow: id, sess: sess})
		}
	}
	if m.draining {
		m.owned[sess] = 0
	}
}

// fold applies the inbox at an iteration boundary; registered is called
// for every fresh (non-adopted) registration.
func (m *refModel) fold(registered func(id core.FlowID, owner int)) {
	for _, ev := range m.inbox {
		f, known := m.live[ev.flow]
		if ev.end {
			switch {
			case !known:
				m.unknown++
			case ev.cleanup && f.owner != ev.sess:
			default:
				m.retire(ev.flow)
			}
			continue
		}
		if known {
			if f.owner != -1 {
				m.dup++
				continue
			}
			if f.src == ev.src && f.dst == ev.dst && f.weight == ev.weight {
				if m.sessions[ev.sess] {
					f.owner = ev.sess
					m.live[ev.flow] = f
					m.owned[ev.sess]++
					m.adopted++
				}
				continue
			}
			m.retire(ev.flow)
		}
		switch {
		case m.draining:
			m.drainRej++
		case !m.sessions[ev.sess]:
			m.rejected++
		case m.limit > 0 && m.owned[ev.sess] >= m.limit:
			m.limited++
		default:
			m.live[ev.flow] = refFlow{owner: ev.sess, src: ev.src, dst: ev.dst, weight: ev.weight}
			m.owned[ev.sess]++
			registered(ev.flow, ev.sess)
		}
	}
	m.inbox = m.inbox[:0]
}

func (m *refModel) retire(id core.FlowID) {
	if owner := m.live[id].owner; owner != -1 {
		m.owned[owner]--
	}
	delete(m.live, id)
}

// refReg is a client-side registration, mirrored by the test.
type refReg struct {
	src, dst int
	weight   float64
}

// bkClient is one endpoint of the randomized test.
type bkClient struct {
	id   uint64
	cli  *transport.AllocClient
	sess int // model session, 0 while disconnected
	regs map[core.FlowID]refReg
	buf  []refEvent // events buffered client-side until the next Step
	held map[core.FlowID]float64
}

func (c *bkClient) apply(ups []core.RateUpdate) {
	for _, u := range ups {
		c.held[u.Flow] = u.Rate
	}
}

// bkRun is one seeded sequence.
type bkRun struct {
	t       *testing.T
	rng     *rand.Rand
	srv     *Server
	m       *refModel
	clients []*bkClient
	quant   bool
	epoch   uint64
}

const (
	bkClients = 3
	bkIDs     = 12 // flow IDs 1..bkIDs, so IDs are reused after their end
	bkLimit   = 4
	bkOps     = 150
)

// TestFlowBookkeepingMatchesReference runs seeded random sequences of adds,
// duplicate adds, ends, unknown and foreign ends, disconnects, reconnects
// (with re-registration), epoch bumps, a drain with adoption by resuming
// clients, sessions at MaxSessionFlows and IDs reused after their end, on
// both engines and in both fan-out encodings. After every operation the
// daemon's counters and flow set must equal the model's, and every
// connected client's held rates must equal Server.Rates() for the flows it
// owns. A re-registered ID must always get its first rate on the wire:
// its held rate is dropped at registration and must be back after the
// next step.
func TestFlowBookkeepingMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		blocks := 0
		if seed%2 == 0 {
			blocks = 2
		}
		quant := seed%4 >= 2
		t.Run(fmt.Sprintf("seed%d-blocks%d-quant%v", seed, blocks, quant), func(t *testing.T) {
			runBookkeeping(t, seed, blocks, quant)
		})
	}
}

func runBookkeeping(t *testing.T, seed int64, blocks int, quant bool) {
	// A vanishing threshold makes every rate change reach the owner, so
	// held rates can be compared with the engine's bit for bit.
	srv, err := New(Config{
		Topology: testTopology(t), Blocks: blocks, UpdateThreshold: 1e-300,
		MaxSessionFlows: bkLimit, QuantizeRates: quant,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	r := &bkRun{t: t, rng: rand.New(rand.NewSource(seed)), srv: srv, m: newRefModel(bkLimit), quant: quant, epoch: 1}
	for i := 0; i < bkClients; i++ {
		c := &bkClient{id: uint64(i + 1), regs: make(map[core.FlowID]refReg), held: make(map[core.FlowID]float64)}
		clientEnd, serverEnd := net.Pipe()
		go srv.ServeConn(serverEnd)
		if c.cli, err = transport.NewAllocClient(clientEnd, c.id); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.cli.Close() })
		c.sess = r.m.connect()
		r.clients = append(r.clients, c)
	}
	drainAt := bkOps/2 + r.rng.Intn(bkOps/2)
	for op := 0; op < bkOps; op++ {
		c := r.clients[r.rng.Intn(len(r.clients))]
		var desc string
		switch {
		case op == drainAt:
			desc = "drain"
			srv.Drain()
			r.m.draining = true
		case c.sess == 0:
			desc = "reconnect"
			r.reconnect(c)
		default:
			desc = r.clientOp(c)
		}
		r.settle()
		r.check(op, desc)
	}
}

// clientOp runs one random operation on a connected client.
func (r *bkRun) clientOp(c *bkClient) string {
	switch p := r.rng.Intn(100); {
	case p < 35:
		id := core.FlowID(1 + r.rng.Intn(bkIDs))
		src := r.rng.Intn(16)
		dst := (src + 1 + r.rng.Intn(15)) % 16
		weight := float64(1 + r.rng.Intn(2))
		if _, dup := c.regs[id]; dup {
			return "add (client-side duplicate)"
		}
		// An ID live at another client makes a daemon-side duplicate.
		if err := c.cli.FlowletStart(id, src, dst, weight); err != nil {
			r.t.Fatal(err)
		}
		c.regs[id] = refReg{src, dst, weight}
		c.buf = append(c.buf, refEvent{flow: id, src: src, dst: dst, weight: weight, sess: c.sess})
		return fmt.Sprintf("client %d add %d", c.id, id)
	case p < 50:
		ids := sortedRegs(c)
		if len(ids) == 0 {
			return "end (nothing registered)"
		}
		id := ids[r.rng.Intn(len(ids))]
		if err := c.cli.FlowletEnd(id); err != nil {
			r.t.Fatal(err)
		}
		delete(c.regs, id)
		c.buf = append(c.buf, refEvent{end: true, flow: id, sess: c.sess})
		return fmt.Sprintf("client %d end %d", c.id, id)
	case p < 55:
		// Unknown, or another client's flow (the daemon retires it).
		id := core.FlowID(1 + r.rng.Intn(bkIDs+3))
		c.cli.EndOrphan(id)
		delete(c.regs, id)
		c.buf = append(c.buf, refEvent{end: true, flow: id, sess: c.sess})
		return fmt.Sprintf("client %d orphan end %d", c.id, id)
	case p < 90:
		r.step(c)
		return fmt.Sprintf("client %d step", c.id)
	case p < 95:
		if r.m.draining {
			r.resume(c)
			return fmt.Sprintf("client %d disconnect+resume while draining", c.id)
		}
		r.disconnect(c)
		return fmt.Sprintf("client %d disconnect", c.id)
	default:
		if r.m.draining {
			r.step(c)
			return fmt.Sprintf("client %d step", c.id)
		}
		r.bumpEpoch()
		return "bump epoch"
	}
}

func sortedRegs(c *bkClient) []core.FlowID {
	ids := make([]core.FlowID, 0, len(c.regs))
	for id := range c.regs {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// step flushes c's events and runs one iteration, folding the model first:
// a fresh registration drops its owner's held rate, which the first rate of
// the new flow must restore.
func (r *bkRun) step(c *bkClient) {
	r.m.events += int64(len(c.buf))
	r.m.inbox = append(r.m.inbox, c.buf...)
	c.buf = nil
	r.m.fold(func(id core.FlowID, owner int) {
		for _, o := range r.clients {
			if o.sess == owner {
				delete(o.held, id)
			}
		}
	})
	ups, err := c.cli.Step()
	if err != nil {
		r.t.Fatalf("client %d step: %v", c.id, err)
	}
	c.apply(ups)
}

// session returns the daemon's live session of client c.
func (r *bkRun) session(c *bkClient) *session {
	r.srv.mu.Lock()
	defer r.srv.mu.Unlock()
	for sess := range r.srv.sessions {
		if sess.id == c.id {
			return sess
		}
	}
	r.t.Fatalf("client %d has no live session", c.id)
	return nil
}

// waitGone waits until the daemon has removed sess.
func (r *bkRun) waitGone(sess *session) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		r.srv.mu.Lock()
		_, live := r.srv.sessions[sess]
		r.srv.mu.Unlock()
		if !live {
			return
		}
		if time.Now().After(deadline) {
			r.t.Fatal("session removal never observed")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// disconnect closes c's connection and waits for the daemon to remove its
// session; events still buffered client-side are lost with it.
func (r *bkRun) disconnect(c *bkClient) {
	sess := r.session(c)
	c.cli.Conn().Close()
	r.waitGone(sess)
	r.m.disconnect(c.sess)
	c.sess = 0
	c.buf = nil
}

// reconnect re-registers every client-side flow with End/Add pairs.
func (r *bkRun) reconnect(c *bkClient) {
	clientEnd, serverEnd := net.Pipe()
	go r.srv.ServeConn(serverEnd)
	if err := c.cli.Reconnect(clientEnd); err != nil {
		r.t.Fatal(err)
	}
	c.sess = r.m.connect()
	c.buf = nil
	for _, id := range sortedRegs(c) {
		reg := c.regs[id]
		c.buf = append(c.buf,
			refEvent{end: true, flow: id, sess: c.sess},
			refEvent{flow: id, src: reg.src, dst: reg.dst, weight: reg.weight, sess: c.sess})
	}
}

// resume drops c from the draining daemon and reconnects it with bare adds,
// which adopt the flows it left unowned; it steps at once so no iteration
// runs while they are unowned.
func (r *bkRun) resume(c *bkClient) {
	r.disconnect(c)
	clientEnd, serverEnd := net.Pipe()
	go r.srv.ServeConn(serverEnd)
	if err := c.cli.ResumeReconnect(clientEnd); err != nil {
		r.t.Fatal(err)
	}
	c.sess = r.m.connect()
	for _, id := range sortedRegs(c) {
		reg := c.regs[id]
		c.buf = append(c.buf, refEvent{flow: id, src: reg.src, dst: reg.dst, weight: reg.weight, sess: c.sess})
	}
	r.step(c)
}

// bumpEpoch advances the epoch: every connected client reads up to the
// EpochNotify and reconnects, as transport clients do.
func (r *bkRun) bumpEpoch() {
	r.epoch++
	if err := r.srv.BumpEpoch(r.epoch); err != nil {
		r.t.Fatal(err)
	}
	for _, c := range r.clients {
		if c.sess == 0 {
			continue
		}
		for {
			ups, _, err := c.cli.Recv(5 * time.Second)
			if errors.Is(err, transport.ErrEpochChanged) {
				break
			}
			if err != nil {
				r.t.Fatalf("client %d waiting for the epoch notify: %v", c.id, err)
			}
			c.apply(ups)
		}
	}
	for _, c := range r.clients {
		if c.sess == 0 {
			continue
		}
		// Reconnect closes the old connection before its handshake.
		old := r.session(c)
		oldSess := c.sess
		r.reconnect(c)
		r.waitGone(old)
		// The model removes the old session before the new one's events,
		// as the daemon folds its cleanup first.
		r.m.disconnect(oldSess)
	}
}

// settle waits until every session's writer has drained its pending rates
// and every written frame has been read by its client, so held rates are
// current.
func (r *bkRun) settle() {
	deadline := time.Now().Add(10 * time.Second)
	for {
		r.srv.mu.Lock()
		drained := true
		sessions := make([]*session, 0, len(r.srv.sessions))
		for sess := range r.srv.sessions {
			drained = drained && len(sess.dirty) == 0
			sessions = append(sessions, sess)
		}
		r.srv.mu.Unlock()
		// A writer holding wmu is mid-flush: its frame can only complete
		// once the client reads it (net.Pipe has no buffer).
		busy := make(map[uint64]bool)
		for _, sess := range sessions {
			if sess.wmu.TryLock() {
				sess.wmu.Unlock()
			} else {
				busy[sess.id] = true
			}
		}
		if drained && len(busy) == 0 {
			return
		}
		if time.Now().After(deadline) {
			r.t.Fatal("fan-out never settled")
		}
		read := false
		for _, c := range r.clients {
			if c.sess == 0 || !busy[c.id] {
				continue
			}
			ups, _, err := c.cli.Recv(2 * time.Millisecond)
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			if err != nil {
				r.t.Fatalf("client %d async read: %v", c.id, err)
			}
			c.apply(ups)
			read = true
		}
		if !read {
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// check compares the daemon with the model after operation op.
func (r *bkRun) check(op int, desc string) {
	t := r.t
	st := r.srv.Stats()
	m := r.m
	got := [8]int64{st.EventsReceived, st.DuplicateAdds, st.UnknownEnds, st.AdoptedFlows, st.LimitedAdds, st.RejectedAdds, st.DrainRejects, st.UpdatesCoalesced}
	want := [8]int64{m.events, m.dup, m.unknown, m.adopted, m.limited, m.rejected, m.drainRej, 0}
	if got != want {
		t.Fatalf("op %d (%s): counters events/dup/unknown/adopted/limited/rejected/drain/coalesced = %v, model %v", op, desc, got, want)
	}
	rates := r.srv.Rates()
	if len(rates) != len(m.live) {
		t.Fatalf("op %d (%s): daemon has %d flows, model %d", op, desc, len(rates), len(m.live))
	}
	for id := range m.live {
		if _, ok := rates[id]; !ok {
			t.Fatalf("op %d (%s): flow %d live in the model, missing in the daemon", op, desc, id)
		}
	}
	for _, c := range r.clients {
		if c.sess == 0 {
			continue
		}
		for id, f := range m.live {
			if _, reg := c.regs[id]; f.owner != c.sess || !reg {
				// A flow the client ended locally (its end not yet
				// flushed) no longer reaches its held rates.
				continue
			}
			want := rates[id]
			if r.quant {
				want = wire.DequantizeRate(wire.QuantizeRate(want))
			}
			held, ok := c.held[id]
			if !ok {
				t.Fatalf("op %d (%s): client %d owns flow %d but never received its rate", op, desc, c.id, id)
			}
			if held != want {
				t.Fatalf("op %d (%s): client %d holds %v for flow %d, daemon rate %v", op, desc, c.id, held, id, want)
			}
		}
	}
}
