package server

import (
	"bytes"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// fanoutConn is the minimal net.Conn the fan-out unit tests hand a bare
// session: Write records whole frames (or discards them when record is
// false), everything else is a no-op.
type fanoutConn struct {
	record bool
	frames [][]byte
}

func (c *fanoutConn) Write(p []byte) (int, error) {
	if c.record {
		c.frames = append(c.frames, append([]byte(nil), p...))
	}
	return len(p), nil
}
func (c *fanoutConn) Read(p []byte) (int, error)         { return 0, net.ErrClosed }
func (c *fanoutConn) Close() error                       { return nil }
func (c *fanoutConn) LocalAddr() net.Addr                { return nil }
func (c *fanoutConn) RemoteAddr() net.Addr               { return nil }
func (c *fanoutConn) SetDeadline(t time.Time) error      { return nil }
func (c *fanoutConn) SetReadDeadline(t time.Time) error  { return nil }
func (c *fanoutConn) SetWriteDeadline(t time.Time) error { return nil }

// fanoutSession builds a bare v4 session wired to conn, bypassing the
// handshake: just enough state for queueUpdate/flushPending.
func fanoutSession(srv *Server, conn net.Conn) *session {
	return &session{
		srv:     srv,
		conn:    conn,
		version: wire.Version,
		kick:    make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
}

// ownFlows registers flows in the server's flow table (not the engine) as
// owned by sess and returns their slots.
func ownFlows(sess *session, ids ...int64) []int32 {
	srv := sess.srv
	srv.mu.Lock()
	defer srv.mu.Unlock()
	slots := make([]int32, len(ids))
	for i, id := range ids {
		slots[i] = srv.flows.insert(core.FlowID(id), sess, 0, 1, 1)
	}
	return slots
}

// queue hands one rate for a table slot to its owner's asynchronous path,
// as iterate does for flows the stepper does not own.
func queue(sess *session, slot int32, rate float64, seq uint64) {
	srv := sess.srv
	srv.mu.Lock()
	sess.queueUpdate(&srv.flows.slots[slot], slot, rate, seq)
	srv.mu.Unlock()
}

// decodeRateFrames parses every recorded frame as a RateDelta and returns
// the decoded entries, frame by frame.
func decodeRateFrames(t *testing.T, frames [][]byte) [][]wire.RateEntry {
	t.Helper()
	var out [][]wire.RateEntry
	for _, frame := range frames {
		sc := wire.NewScanner(bytes.NewReader(frame))
		typ, payload, err := sc.Next()
		if err != nil {
			t.Fatalf("scan fan-out frame: %v", err)
		}
		if typ != wire.TypeRateDelta {
			t.Fatalf("fan-out frame type = %d, want TypeRateDelta", typ)
		}
		var d wire.RateDelta
		if err := wire.DecodeRateDelta(payload, &d); err != nil {
			t.Fatalf("decode fan-out frame: %v", err)
		}
		out = append(out, append([]wire.RateEntry(nil), d.Entries...))
	}
	return out
}

// TestFanoutDeltaSuppression drives the writer's flush path directly: a v4
// session must skip flows whose rate is unchanged since its last sent value,
// resend when the rate moves, and — because the shadow is per-session state
// — resend everything on a fresh session, which is exactly what a client
// reconnect or an epoch bump produces.
func TestFanoutDeltaSuppression(t *testing.T) {
	srv := &Server{}
	conn := &fanoutConn{record: true}
	sess := fanoutSession(srv, conn)
	slots := ownFlows(sess, 9, 7)
	f9, f7 := slots[0], slots[1]

	queue(sess, f9, 2.5e9, 1)
	queue(sess, f7, 5e9, 1)
	if !sess.flushPending() {
		t.Fatal("flushPending reported write error")
	}
	got := decodeRateFrames(t, conn.frames)
	if len(got) != 1 || len(got[0]) != 2 {
		t.Fatalf("first flush frames = %v, want one frame with 2 entries", got)
	}
	if got[0][0].Flow != 7 || got[0][0].Rate != 5e9 || got[0][1].Flow != 9 || got[0][1].Rate != 2.5e9 {
		t.Fatalf("first flush entries = %v", got[0])
	}

	// Same rates again: both suppressed, no frame at all.
	conn.frames = nil
	queue(sess, f7, 5e9, 2)
	queue(sess, f9, 2.5e9, 2)
	sess.flushPending()
	if len(conn.frames) != 0 {
		t.Fatalf("unchanged rates produced %d frames, want 0", len(conn.frames))
	}

	// One rate moves: only that flow is resent.
	queue(sess, f7, 5e9, 3)
	queue(sess, f9, 3e9, 3)
	sess.flushPending()
	got = decodeRateFrames(t, conn.frames)
	if len(got) != 1 || len(got[0]) != 1 || got[0][0].Flow != 9 || got[0][0].Rate != 3e9 {
		t.Fatalf("changed-rate flush = %v, want only flow 9 at 3e9", got)
	}

	// A fresh session (what Reconnect and BumpEpoch produce) has a fresh
	// shadow: once it owns the flows, the same rates go out in full again.
	conn2 := &fanoutConn{record: true}
	sess2 := fanoutSession(srv, conn2)
	srv.flows.setOwner(f7, sess2)
	srv.flows.setOwner(f9, sess2)
	queue(sess2, f7, 5e9, 1)
	queue(sess2, f9, 3e9, 1)
	sess2.flushPending()
	got = decodeRateFrames(t, conn2.frames)
	if len(got) != 1 || len(got[0]) != 2 {
		t.Fatalf("fresh session resend = %v, want both flows", got)
	}
}

// TestQuantizedFanout checks the opt-in lossy mode: rates leave the daemon
// on the paper's 1 Mbps grid, and a rate change too small to move the
// quantized value is suppressed entirely.
func TestQuantizedFanout(t *testing.T) {
	srv := &Server{cfg: Config{QuantizeRates: true}}
	conn := &fanoutConn{record: true}
	sess := fanoutSession(srv, conn)

	f1 := ownFlows(sess, 1)[0]
	rate := 1.2345678e9
	queue(sess, f1, rate, 1)
	sess.flushPending()
	got := decodeRateFrames(t, conn.frames)
	want := wire.DequantizeRate(wire.QuantizeRate(rate))
	if len(got) != 1 || len(got[0]) != 1 || got[0][0].Rate != want {
		t.Fatalf("quantized flush = %v, want rate %v", got, want)
	}

	// A sub-Mbps wiggle lands in the same bucket: suppressed.
	conn.frames = nil
	queue(sess, f1, rate+1e3, 2)
	sess.flushPending()
	if len(conn.frames) != 0 {
		t.Fatalf("sub-grid rate change produced %d frames, want 0", len(conn.frames))
	}

	// A full-Mbps move crosses buckets: sent.
	queue(sess, f1, rate+5e6, 3)
	sess.flushPending()
	got = decodeRateFrames(t, conn.frames)
	want = wire.DequantizeRate(wire.QuantizeRate(rate + 5e6))
	if len(got) != 1 || got[0][0].Rate != want {
		t.Fatalf("cross-bucket flush = %v, want rate %v", got, want)
	}
}

// fanoutFlows registers n flows (IDs 0, 3, 6, ...) owned by sess in slots
// 0..n-1.
func fanoutFlows(sess *session, n int) {
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i * 3)
	}
	ownFlows(sess, ids...)
}

// fillFanout queues a rate for each of the n flows fanoutFlows registered,
// in a scrambled order (as engine update order is not flow-ID order), with
// rates that differ from round to round so suppression never hides the
// encode work. n must be a power of two.
func fillFanout(sess *session, n int, round int) {
	srv := sess.srv
	srv.mu.Lock()
	for i := 0; i < n; i++ {
		slot := int32(i * 7919 % n)
		sess.queueUpdate(&srv.flows.slots[slot], slot, float64(1e9+int(slot)*1000+round), uint64(round))
	}
	srv.mu.Unlock()
}

// TestFanoutFlushZeroAllocs pins the steady-state fan-out path at zero
// allocations per flush: the dirty list, entry scratch and encode buffer are
// reused across iterations, and the pending rates and shadows live in the
// flow table's slots.
func TestFanoutFlushZeroAllocs(t *testing.T) {
	sess := fanoutSession(&Server{}, &fanoutConn{})
	const flows = 256
	fanoutFlows(sess, flows)
	// Warm-up rounds grow the scratch slices to steady state.
	for round := 0; round < 3; round++ {
		fillFanout(sess, flows, round)
		sess.flushPending()
	}
	round := 3
	avg := testing.AllocsPerRun(50, func() {
		fillFanout(sess, flows, round)
		round++
		sess.flushPending()
	})
	if avg != 0 {
		t.Fatalf("steady-state fan-out flush allocates %.2f objects/op, want 0", avg)
	}
}

// BenchmarkFanoutFlush measures the writer's drain-sort-encode-write cycle
// for one coalesced batch of 1024 changed rates.
func BenchmarkFanoutFlush(b *testing.B) {
	sess := fanoutSession(&Server{}, &fanoutConn{})
	const flows = 1024
	fanoutFlows(sess, flows)
	for round := 0; round < 3; round++ {
		fillFanout(sess, flows, round)
		sess.flushPending()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fillFanout(sess, flows, i+3)
		sess.flushPending()
	}
}
