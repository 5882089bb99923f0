package main

import (
	"bytes"
	"errors"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/norm"
	"repro/internal/num"
	"repro/internal/topology"
	"repro/internal/wire"
)

// timedSolver times every Step of the solver it wraps.
type timedSolver struct {
	num.Solver
	total time.Duration
}

func (t *timedSolver) Step(p *num.Problem, st *num.State) {
	t0 := time.Now()
	t.Solver.Step(p, st)
	t.total += time.Since(t0)
}

// timedNorm times every Normalize of the normalizer it wraps.
type timedNorm struct {
	norm.Normalizer
	total time.Duration
}

func (t *timedNorm) Normalize(p *num.Problem, rates, out []float64) []float64 {
	t0 := time.Now()
	out = t.Normalizer.Normalize(p, rates, out)
	t.total += time.Since(t0)
	return out
}

// replayResult is what replaying an operation log through an in-process
// allocator gives: one digest per mark, and the time split.
type replayResult struct {
	digests             []uint64
	iterations          int
	iterate, ned, fnorm time.Duration
	adds, ends          int
	addTime, endTime    time.Duration
}

// replay feeds log through a fresh in-process core.Allocator with the
// daemon's defaults (γ 0.4, 1% threshold, NED and F-NORM wrapped in timers),
// running one Iterate at each mark.
func replay(topo *topology.Topology, log *opLog) (*replayResult, error) {
	solver := &timedSolver{Solver: &num.NED{Gamma: 0.4}}
	normalizer := &timedNorm{Normalizer: norm.NewFNorm()}
	a, err := core.NewAllocator(core.Config{Topology: topo, Solver: solver, Normalizer: normalizer})
	if err != nil {
		return nil, err
	}
	res := &replayResult{}
	next := 0
	for _, m := range log.marks {
		// Ends and starts are timed as runs, so the clock reads do not
		// swamp sub-microsecond calls.
		for next < m {
			j := next
			for j < m && log.events[j].end == log.events[next].end {
				j++
			}
			t0 := time.Now()
			for _, e := range log.events[next:j] {
				if e.end {
					err = a.FlowletEnd(e.f.ID)
				} else {
					err = a.FlowletStartSized(e.f.ID, e.f.Src, e.f.Dst, 1, e.f.Size)
				}
				if err != nil {
					return nil, err
				}
			}
			if log.events[next].end {
				res.endTime += time.Since(t0)
				res.ends += j - next
			} else {
				res.addTime += time.Since(t0)
				res.adds += j - next
			}
			next = j
		}
		t0 := time.Now()
		ups := a.Iterate()
		res.iterate += time.Since(t0)
		res.iterations++
		res.digests = append(res.digests, digest(ups))
	}
	res.ned, res.fnorm = solver.total, normalizer.total
	return res, nil
}

// wireResult times the RateDelta codec on captured frames.
type wireResult struct {
	entries, frameBytes int
	encodeNs, decodeNs  float64 // per entry
}

// timeWire decodes and re-encodes every RateDelta frame in the captured
// client read streams, repeating the pass until it has run for at least
// 100 ms, and reports the per-entry cost.
func timeWire(streams [][]byte) (wireResult, error) {
	var payloads [][]byte
	var res wireResult
	for _, s := range streams {
		sc := wire.NewScanner(bytes.NewReader(s))
		for {
			typ, p, err := sc.Next()
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				break
			}
			if err != nil {
				return res, err
			}
			if typ == wire.TypeRateDelta {
				payloads = append(payloads, bytes.Clone(p))
				res.frameBytes += wire.HeaderBytes + len(p)
			}
		}
	}
	decoded := make([]wire.RateDelta, len(payloads))
	for i, p := range payloads {
		if err := wire.DecodeRateDelta(p, &decoded[i]); err != nil {
			return res, err
		}
		decoded[i].Entries = append([]wire.RateEntry(nil), decoded[i].Entries...)
		res.entries += len(decoded[i].Entries)
	}
	if res.entries == 0 {
		return res, nil
	}
	var scratch wire.RateDelta
	passes, t0 := 0, time.Now()
	for passes == 0 || time.Since(t0) < 100*time.Millisecond {
		for _, p := range payloads {
			if err := wire.DecodeRateDelta(p, &scratch); err != nil {
				return res, err
			}
		}
		passes++
	}
	res.decodeNs = float64(time.Since(t0).Nanoseconds()) / float64(passes*res.entries)
	var buf []byte
	passes, t0 = 0, time.Now()
	for passes == 0 || time.Since(t0) < 100*time.Millisecond {
		for _, d := range decoded {
			buf = wire.AppendRateDelta(buf[:0], d.Seq, d.Quantized, d.Entries)
		}
		passes++
	}
	res.encodeNs = float64(time.Since(t0).Nanoseconds()) / float64(passes*res.entries)
	return res, nil
}

// recCursor walks one probe's records in time order.
type recCursor struct {
	recs []ioRec
	i    int
}

// until returns the records that ended before t and advances past them.
func (c *recCursor) until(t int64) []ioRec {
	j := c.i
	for j < len(c.recs) && c.recs[j].end <= t {
		j++
	}
	out := c.recs[c.i:j]
	c.i = j
	return out
}

// ioTotals accumulates per-layer time, in nanoseconds, over a traced phase.
type ioTotals struct {
	encode, write, decode  float64
	turnaround, replyWrite float64
	requests               int
	exchangeWrite          float64
}

// attributeStep splits one closed-loop Step window [s, e], traced as span
// parent, across the client connections (in the order Step uses them), the
// daemon side of each, and the peer mesh, adding child spans.
func attributeStep(tr *tracer, parent int, id int64, s, e int64, cli, srv, peers []*recCursor, tot *ioTotals) {
	cliRecs := make([][]ioRec, len(cli))
	for i, c := range cli {
		c.until(s)
		cliRecs[i] = c.until(e)
	}
	for i := range cli {
		boundary := e
		if i+1 < len(cli) {
			for _, r := range cliRecs[i+1] {
				if r.write {
					boundary = r.start
					break
				}
			}
		}
		var firstRead int64 = -1
		for _, r := range cliRecs[i] {
			if r.write {
				tot.write += float64(r.end - r.start)
				tr.add("transport.write", r.start, r.end, parent, id)
			} else if firstRead < 0 {
				firstRead = r.end
			}
		}
		if firstRead >= 0 && boundary > firstRead {
			tot.decode += float64(boundary - firstRead)
			tr.add("transport.decode", firstRead, boundary, parent, id)
		}
		srv[i].until(s)
		var req int64 = -1
		for _, r := range srv[i].until(e) {
			switch {
			case !r.write && r.step:
				req = r.end
			case r.write && req >= 0:
				tot.requests++
				tot.turnaround += float64(r.start - req)
				tr.add("server.turnaround", req, r.start, parent, id)
				tot.replyWrite += float64(r.end - r.start)
				tr.add("server.reply_write", r.start, r.end, parent, id)
				req = -2 // later writes in the window are reply continuation
			case r.write && req == -2:
				tot.replyWrite += float64(r.end - r.start)
				tr.add("server.reply_write", r.start, r.end, parent, id)
			}
		}
	}
	for _, p := range peers {
		p.until(s)
		for _, r := range p.until(e) {
			if r.write {
				tot.exchangeWrite += float64(r.end - r.start)
				tr.add("cluster.exchange_write", r.start, r.end, parent, id)
			}
		}
	}
}

// cursors wraps each probe's records.
func cursors(ps []*probe) []*recCursor {
	out := make([]*recCursor, len(ps))
	for i, p := range ps {
		out[i] = &recCursor{recs: p.take()}
	}
	return out
}
