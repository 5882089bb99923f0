package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// span is one traced interval. Times are nanoseconds since the tracer's
// base; parent indexes the tracer's span list (-1 for a root); id is the
// step number or flowlet ID the span belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	ID     int64  `json:"id"`
}

// tracer keeps spans in memory for one run. Spans are added by the single
// benchmark goroutine, and by the post-run attribution of connection I/O.
// on gates recording, so one traced run can time a phase without it.
type tracer struct {
	base  time.Time
	on    atomic.Bool
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// add records a span and returns its index.
func (t *tracer) add(name string, start, end int64, parent int, id int64) int {
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, ID: id})
	return len(t.spans) - 1
}

// selfTime sums, per span name, each span's duration minus the part of it
// its children cover, in nanoseconds.
func (t *tracer) selfTime() map[string]float64 {
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]float64)
	type iv struct{ a, b int64 }
	var ivs []iv
	for i, s := range t.spans {
		ivs = ivs[:0]
		for _, c := range children[i] {
			cs := t.spans[c]
			a, b := max(cs.Start, s.Start), min(cs.End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		slices.SortFunc(ivs, func(x, y iv) int { return int(x.a - y.a) })
		covered, cur := int64(0), s.Start
		for _, v := range ivs {
			a := max(v.a, cur)
			if v.b > a {
				covered += v.b - a
				cur = v.b
			}
		}
		out[s.Name] += float64(s.End - s.Start - covered)
	}
	return out
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ioRec is one Read or Write on a probed connection.
type ioRec struct {
	start, end int64
	write      bool
	// step marks a read that completed a Step frame; frames marks a read
	// that completed at least one frame and ended on a frame boundary.
	step, frames bool
}

// probe records the I/O of one connection while its tracer is on. It also
// follows the frame boundaries of the bytes read (always, so it never loses
// sync) and can keep a copy of the first captureCap bytes read, which the
// wire-codec timing replays.
type probe struct {
	tr *tracer

	mu   sync.Mutex
	recs []ioRec

	// Read-side frame tracking; only the connection's reader touches it.
	hdr        [wire.HeaderBytes]byte
	hdrHave    int
	payLeft    int
	captureCap int
	captured   []byte
}

func (p *probe) onRead(b []byte, start, end int64) {
	if len(p.captured) < p.captureCap {
		p.captured = append(p.captured, b[:min(len(b), p.captureCap-len(p.captured))]...)
	}
	step, frames := false, false
	for len(b) > 0 {
		if p.hdrHave < wire.HeaderBytes {
			k := copy(p.hdr[p.hdrHave:], b)
			p.hdrHave += k
			b = b[k:]
			if p.hdrHave < wire.HeaderBytes {
				break
			}
			p.payLeft = int(p.hdr[1]) | int(p.hdr[2])<<8 | int(p.hdr[3])<<16
		}
		k := min(p.payLeft, len(b))
		p.payLeft -= k
		b = b[k:]
		if p.payLeft == 0 {
			frames = true
			step = step || wire.MsgType(p.hdr[0]) == wire.TypeStep
			p.hdrHave = 0
		}
	}
	if p.tr.on.Load() {
		p.mu.Lock()
		p.recs = append(p.recs, ioRec{start: start, end: end, step: step, frames: frames && p.hdrHave == 0})
		p.mu.Unlock()
	}
}

func (p *probe) onWrite(start, end int64) {
	if p.tr.on.Load() {
		p.mu.Lock()
		p.recs = append(p.recs, ioRec{start: start, end: end, write: true})
		p.mu.Unlock()
	}
}

// take returns the records so far and clears them.
func (p *probe) take() []ioRec {
	p.mu.Lock()
	defer p.mu.Unlock()
	r := p.recs
	p.recs = nil
	return r
}

// probedConn stamps every Read and Write of the connection it wraps.
type probedConn struct {
	net.Conn
	p *probe
}

func (c *probedConn) Read(b []byte) (int, error) {
	t0 := c.p.tr.now()
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.p.onRead(b[:n], t0, c.p.tr.now())
	}
	return n, err
}

func (c *probedConn) Write(b []byte) (int, error) {
	t0 := c.p.tr.now()
	n, err := c.Conn.Write(b)
	c.p.onWrite(t0, c.p.tr.now())
	return n, err
}

// prober wraps connections when the run is traced and passes them through
// untouched otherwise, so untraced runs measure the bare code.
type prober struct {
	tr         *tracer // nil when untraced
	captureCap int

	mu     sync.Mutex
	probes []*probe
}

// wrap returns conn, probed when tracing, and the probe (nil if not).
func (pr *prober) wrap(conn net.Conn, capture bool) (net.Conn, *probe) {
	if pr.tr == nil {
		return conn, nil
	}
	p := &probe{tr: pr.tr}
	if capture {
		p.captureCap = pr.captureCap
	}
	pr.mu.Lock()
	pr.probes = append(pr.probes, p)
	pr.mu.Unlock()
	return &probedConn{Conn: conn, p: p}, p
}

// listen returns a loopback TCP listener whose accepted connections are
// probed when tracing; accepted reports each daemon-side probe.
func (pr *prober) listen(accepted chan<- *probe) (net.Listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	if pr.tr == nil {
		return ln, nil
	}
	return &probedListener{Listener: ln, pr: pr, accepted: accepted}, nil
}

type probedListener struct {
	net.Listener
	pr       *prober
	accepted chan<- *probe
}

func (l *probedListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	c, p := l.pr.wrap(conn, false)
	l.accepted <- p
	return c, nil
}
