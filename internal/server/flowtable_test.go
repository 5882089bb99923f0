package server

import (
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
)

// stepFixture is a step-driven daemon whose flows are split between the
// stepping session and a second session, both bare v4 sessions on
// discarding connections: every step runs the reply path for the stepper's
// flows and the asynchronous queue-and-flush path for the other's.
type stepFixture struct {
	srv            *Server
	stepper, other *session
	links          []topology.LinkID
	caps           []float64
	seq            uint64
}

// newStepFixture registers n flows (even IDs owned by the stepper, odd by
// the other session) on the sequential (blocks 0) or parallel engine.
func newStepFixture(tb testing.TB, blocks, n int) *stepFixture {
	tb.Helper()
	topo := testTopology(tb)
	srv, err := New(Config{Topology: topo, Blocks: blocks})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close() })
	f := &stepFixture{srv: srv, stepper: fanoutSession(srv, &fanoutConn{}), other: fanoutSession(srv, &fanoutConn{})}
	srv.mu.Lock()
	for i := 0; i < n; i++ {
		owner := f.stepper
		if i%2 == 1 {
			owner = f.other
		}
		if err := srv.admitLocked(core.FlowID(i), i%16, (i+5)%16, 1, 0, owner); err != nil {
			srv.mu.Unlock()
			tb.Fatal(err)
		}
	}
	srv.mu.Unlock()
	// The server NIC links carry every flow; halving and restoring their
	// capacity on alternate steps moves every rate past the notification
	// threshold, so each step surfaces an update for every flow.
	caps := topo.Capacities()
	for l, link := range topo.Links() {
		if topo.Node(link.Src).Kind == topology.Server || topo.Node(link.Dst).Kind == topology.Server {
			f.links = append(f.links, topology.LinkID(l))
			f.caps = append(f.caps, caps[l])
		}
	}
	return f
}

// step toggles the NIC capacities, runs one stepped iteration and flushes
// the other session's writer queue, as its writer goroutine would.
func (f *stepFixture) step(tb testing.TB) {
	f.seq++
	scale := 1.0
	if f.seq%2 == 1 {
		scale = 0.5
	}
	for i, l := range f.links {
		if err := f.srv.SetLinkCapacity(l, f.caps[i]*scale); err != nil {
			tb.Fatal(err)
		}
	}
	if err := f.srv.iterate(f.stepper, f.seq); err != nil {
		tb.Fatal(err)
	}
	if !f.other.flushPending() {
		tb.Fatal("flushPending reported a write error")
	}
}

// TestStepReplyZeroAllocs pins the owned-flow path at zero allocations per
// step on both engines: the step reply (routing, purge, shadow write and
// encode) for the stepper's flows, and queueUpdate plus the writer's flush
// for the other session's.
func TestStepReplyZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		blocks int
	}{
		{"sequential", 0},
		{"parallel", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const flows = 64
			f := newStepFixture(t, tc.blocks, flows)
			for i := 0; i < 20; i++ {
				f.step(t)
			}
			// Both paths must carry every flow on a step, or the pin below
			// measures nothing.
			st0 := f.srv.Stats()
			f.step(t)
			st1 := f.srv.Stats()
			if got := st1.UpdatesSent - st0.UpdatesSent; got != flows {
				t.Fatalf("one step sent %d updates, want %d (half replied, half fanned out)", got, flows)
			}
			if got := st1.BatchesSent - st0.BatchesSent; got != 2 {
				t.Fatalf("one step wrote %d rate frames, want 2 (reply + fan-out)", got)
			}
			if allocs := testing.AllocsPerRun(100, func() { f.step(t) }); allocs != 0 {
				t.Fatalf("steady-state step reply + fan-out allocates %.1f times per op; want 0", allocs)
			}
		})
	}
}

// BenchmarkStepReply measures one stepped iteration with 4096 flows, half
// owned by the stepper (reply path) and half by a second session
// (asynchronous queue and flush), including the engine's solve.
func BenchmarkStepReply(b *testing.B) {
	for _, bc := range []struct {
		name   string
		blocks int
	}{
		{"sequential", 0},
		{"parallel", 2},
	} {
		b.Run(bc.name, func(b *testing.B) {
			f := newStepFixture(b, bc.blocks, 4096)
			for i := 0; i < 10; i++ {
				f.step(b)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.step(b)
			}
		})
	}
}

// TestReusedSlotSendsFirstRate pins the shadow reset on slot reuse: a freed
// slot goes to the next registration, and that flow's first rate must reach
// the wire even when it equals the last rate sent for the slot's previous
// flow — whether the new flow reuses the ID under the same session or is
// another flow of another session.
func TestReusedSlotSendsFirstRate(t *testing.T) {
	srv := &Server{}
	connA, connB := &fanoutConn{record: true}, &fanoutConn{record: true}
	a, b := fanoutSession(srv, connA), fanoutSession(srv, connB)
	const rate = 1e10
	slot := ownFlows(a, 5)[0]
	queue(a, slot, rate, 1)
	a.flushPending()

	for _, tc := range []struct {
		name string
		sess *session
		conn *fanoutConn
		id   int64
	}{
		{"same ID, same session", a, connA, 5},
		{"other ID, other session", b, connB, 8},
		{"back to the first session", a, connA, 9},
	} {
		srv.flows.remove(slot)
		if got := ownFlows(tc.sess, tc.id)[0]; got != slot {
			t.Fatalf("%s: new flow got slot %d, want the freed slot %d", tc.name, got, slot)
		}
		tc.conn.frames = nil
		queue(tc.sess, slot, rate, 2)
		tc.sess.flushPending()
		got := decodeRateFrames(t, tc.conn.frames)
		if len(got) != 1 || len(got[0]) != 1 || got[0][0].Flow != tc.id || got[0][0].Rate != rate {
			t.Fatalf("%s: first rate frames = %v, want flow %d at %v", tc.name, got, tc.id, rate)
		}
	}
}

// TestQueueCoalesces pins the backpressure policy: rates queued twice
// before the writer drains collapse to the latest one and are counted.
func TestQueueCoalesces(t *testing.T) {
	srv := &Server{}
	conn := &fanoutConn{record: true}
	sess := fanoutSession(srv, conn)
	slots := ownFlows(sess, 1, 2)
	queue(sess, slots[0], 1e9, 1)
	queue(sess, slots[1], 2e9, 1)
	queue(sess, slots[0], 3e9, 2)
	sess.flushPending()
	got := decodeRateFrames(t, conn.frames)
	if len(got) != 1 || len(got[0]) != 2 || got[0][0].Rate != 3e9 || got[0][1].Rate != 2e9 {
		t.Fatalf("coalesced flush = %v, want flow 1 at 3e9 and flow 2 at 2e9", got)
	}
	if n := srv.Stats().UpdatesCoalesced; n != 1 {
		t.Fatalf("UpdatesCoalesced = %d, want 1", n)
	}
}
