package main

import (
	"container/heap"
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/core"
	"repro/internal/topology"
)

// Open-loop workload parameters.
const (
	openBackground = 2000
	openWarmup     = 500 * time.Millisecond
	openRate       = 2000.0                // arrivals per second
	openLifetime   = 50 * time.Millisecond // mean flowlet lifetime
	openDrain      = 300 * time.Millisecond
	openTick       = time.Millisecond
	// openLogMarks caps the operation log the traced run's replay times.
	openLogMarks = 2000
	// settleMax bounds how long checkSettled waits for in-flight updates;
	// settleRecv is its wait for each further batch.
	settleMax  = 2 * time.Second
	settleRecv = 20 * time.Millisecond
	// traceWindow is the length of the alternating recorded and unrecorded
	// windows of a traced run.
	traceWindow = 250 * time.Millisecond
)

// endQueue orders live arrivals by due end time.
type endQueue []pendingEnd

type pendingEnd struct {
	due time.Time
	f   flowlet
}

func (q endQueue) Len() int           { return len(q) }
func (q endQueue) Less(i, j int) bool { return q[i].due.Before(q[j].due) }
func (q endQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *endQueue) Push(x any)        { *q = append(*q, x.(pendingEnd)) }
func (q *endQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// openInst is the set-up open-loop deployment.
type openInst struct {
	d     *deployment
	sched *schedule
	log   opLog
	flows flowTable
}

// recv reads one rate batch, treating a deadline expiry as "nothing yet".
// A timeout that has already run out reads nothing (Recv(0) would block).
func (x *openInst) recv(timeout time.Duration) ([]core.RateUpdate, error) {
	if timeout <= 0 {
		return nil, nil
	}
	ups, _, err := x.d.alloc.Recv(timeout)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	x.flows.apply(ups)
	return ups, nil
}

// checkSettled requires every live flow to hold a rate in (0, nic] that
// agrees with the daemon's under the threshold rule. The free-running daemon
// keeps iterating, so a comparison can catch an update the daemon has queued
// but the client has not decoded yet: while a check fails, the client keeps
// receiving and checks again against a fresh snapshot, for up to settleMax.
func (x *openInst) checkSettled(nic float64) (time.Duration, error) {
	t0 := time.Now()
	for {
		err := checkLiveRates(&x.flows, nic)
		if err == nil {
			err = checkAgreement(&x.flows, x.d.daemonRates(), 0.01)
		}
		if err == nil || time.Since(t0) > settleMax {
			return time.Since(t0), err
		}
		if _, err := x.recv(settleRecv); err != nil {
			return time.Since(t0), err
		}
	}
}

func setupOpen(o options, pr *prober) (*openInst, error) {
	d, err := deploySingle(pr, openTick)
	if err != nil {
		return nil, err
	}
	x := &openInst{d: d, sched: newSchedule(o.seed, d.topo.NumServers()), log: opLog{limit: openLogMarks}}
	fail := func(err error) (*openInst, error) {
		d.close()
		return nil, fmt.Errorf("set-up: %w", err)
	}
	for i := 0; i < openBackground; i++ {
		f := x.sched.start()
		x.log.add(event{f: f})
		x.flows.start(f)
		if err := d.alloc.FlowletStartSized(f.ID, f.Src, f.Dst, 1, f.Size); err != nil {
			return fail(err)
		}
	}
	if err := d.alloc.Flush(); err != nil {
		return fail(err)
	}
	x.log.mark()
	for end := time.Now().Add(openWarmup); time.Now().Before(end); {
		if _, err := x.recv(time.Until(end)); err != nil {
			return fail(err)
		}
	}
	return x, nil
}

func runOpenLoop(o options) (*result, error) {
	tr := newTracer()
	pr := &prober{captureCap: 16 << 20}
	if o.traced {
		pr.tr = tr
	}
	x, setups, err := setupMany(func() (*openInst, error) { return setupOpen(o, pr) },
		func(x *openInst) { x.d.close() })
	if err != nil {
		return nil, err
	}
	defer x.d.close()
	d, cli := x.d, x.d.alloc
	res := newResult()
	rc := topology.NewRouteCache(d.topo)

	// due[id] is the due time (ns on the tracer clock) of an arrival that
	// has not decoded its first rate yet.
	due := make(map[core.FlowID]int64)
	// Sized for the expected arrivals so the benchmark's own growth does
	// not show in peak_heap_mb.
	expect := int(openRate*o.duration.Seconds()*1.25) + 1024
	lat, latTraced, late := make([]float64, 0, expect), make([]float64, 0, expect), make([]float64, 0, 2*expect)
	var ends endQueue
	var arrivals, unrated, tracedArrivals, tracedUpdates int
	var tot ioTotals
	var recvWindows []stepWindow
	maxUtil, excluded := 0.0, 0.0
	st0, it0 := d.statsSum(), d.iterations()
	var tracedIters, itMark uint64

	noteRates := func(ups []core.RateUpdate, traced bool) {
		now := tr.now()
		for _, u := range ups {
			if t, ok := due[u.Flow]; ok {
				ms := float64(now-t) / 1e6
				if traced {
					latTraced = append(latTraced, ms)
				} else {
					lat = append(lat, ms)
				}
				delete(due, u.Flow)
			}
		}
	}

	cpu0, start := cpuSeconds(), time.Now()
	deadline := start.Add(o.duration)
	nextArrival := start.Add(time.Duration(x.sched.exp(float64(time.Second) / openRate)))
	nextCheckpoint := start.Add(time.Second)
	loops := 0
	for now := time.Now(); now.Before(deadline); now = time.Now() {
		// A traced run records alternate windows, so the windows between
		// them measure the tracing overhead under the same conditions.
		if on := o.traced && (now.Sub(start)/traceWindow)%2 == 1; on != tr.on.Load() {
			it := d.iterations()
			if !on {
				tracedIters += it - itMark
			}
			itMark = it
			tr.on.Store(on)
		}
		encS := tr.now()
		sent := false
		for !nextArrival.After(now) {
			f := x.sched.start()
			life := time.Duration(x.sched.exp(float64(openLifetime)))
			heap.Push(&ends, pendingEnd{due: nextArrival.Add(life), f: f})
			due[f.ID] = int64(nextArrival.Sub(tr.base))
			late = append(late, float64(now.Sub(nextArrival))/1e6)
			x.log.add(event{f: f})
			x.flows.start(f)
			if err := cli.FlowletStartSized(f.ID, f.Src, f.Dst, 1, f.Size); err != nil {
				return nil, err
			}
			arrivals++
			if tr.on.Load() {
				tracedArrivals++
			}
			sent = true
			nextArrival = nextArrival.Add(time.Duration(x.sched.exp(float64(time.Second) / openRate)))
		}
		for len(ends) > 0 && !ends[0].due.After(now) {
			e := heap.Pop(&ends).(pendingEnd)
			if _, unratedYet := due[e.f.ID]; unratedYet {
				unrated++
				delete(due, e.f.ID)
			}
			late = append(late, float64(now.Sub(e.due))/1e6)
			x.log.add(event{end: true, f: e.f})
			x.flows.end(e.f.ID)
			if err := cli.FlowletEnd(e.f.ID); err != nil {
				return nil, err
			}
			sent = true
		}
		if sent {
			encE := tr.now()
			if tr.on.Load() {
				tot.encode += float64(encE - encS)
				tr.add("transport.encode", encS, encE, -1, int64(loops))
			}
			res.attempted++
			if err := cli.Flush(); err != nil {
				res.failed++
				res.check(fmt.Errorf("flush: %w", err))
				break
			}
			x.log.mark()
		}
		next := nextArrival
		if len(ends) > 0 && ends[0].due.Before(next) {
			next = ends[0].due
		}
		if deadline.Before(next) {
			next = deadline
		}
		if wait := time.Until(next); wait > 0 {
			rs := tr.now()
			res.attempted++
			ups, err := x.recv(wait)
			if err != nil {
				res.failed++
				res.check(fmt.Errorf("recv: %w", err))
				break
			}
			if len(ups) > 0 {
				noteRates(ups, tr.on.Load())
				if tr.on.Load() {
					tracedUpdates += len(ups)
					re := tr.now()
					sp := tr.add("transport.recv", rs, re, -1, int64(loops))
					recvWindows = append(recvWindows, stepWindow{span: sp, id: int64(loops), start: rs, end: re})
				}
			}
		}
		loops++
		if !now.Before(nextCheckpoint) {
			c0 := cpuSeconds()
			u, err := linkUtil(d.topo, rc, &x.flows)
			if err != nil {
				return nil, err
			}
			maxUtil = max(maxUtil, u)
			excluded += cpuSeconds() - c0
			nextCheckpoint = nextCheckpoint.Add(time.Second)
		}
	}
	wall := time.Since(start).Seconds()
	cpu := cpuSeconds() - cpu0 - excluded
	st1, it1 := d.statsSum(), d.iterations()
	tracing := tr.on.Load()
	if tracing {
		tracedIters += it1 - itMark
	}
	tr.on.Store(false)
	// The arrivals, and so the work, are fixed by the rate and the duration.
	heapMB := liveHeapMB()

	// Arrivals stop; keep receiving so late first rates are still timed
	// and the allocation settles, then check it.
	for end := time.Now().Add(openDrain); time.Now().Before(end); {
		ups, err := x.recv(time.Until(end))
		if err != nil {
			res.failed++
			res.check(fmt.Errorf("drain recv: %w", err))
			break
		}
		noteRates(ups, tracing)
	}
	u, err := linkUtil(d.topo, rc, &x.flows)
	if err != nil {
		return nil, err
	}
	maxUtil = max(maxUtil, u)
	res.check(checkUtil(maxUtil))
	settled, err := x.checkSettled(d.topo.Config().LinkCapacity)
	res.check(err)
	if arrivals == 0 || len(lat) == 0 {
		return nil, errors.New("no arrival was rated")
	}

	if !o.traced {
		p50, _ := tail(lat, 0.5)
		p95, _ := tail(lat, 0.95)
		p99, beyond := tail(lat, 0.99)
		fa := float64(arrivals)
		fanout := float64(st1.FanoutBytes - st0.FanoutBytes)
		res.set("setup_s", "s", median(setups))
		res.set("latency_ms_mean", "ms", mean(lat))
		res.set("latency_ms_p95", "ms", p95)
		res.set("cpu_ms_per_op", "ms", cpu*1e3/fa)
		res.set("peak_heap_mb", "MB", heapMB)
		res.show("max_link_util", "ratio", maxUtil, "")
		res.show("settle_ms", "ms", float64(settled.Microseconds())/1e3, "extra wait after the drain until client and daemon agreed")
		res.show("rate_latency_ms_p50", "ms", p50, fmt.Sprintf("%d samples; %s", len(lat), deciles(lat)))
		res.show("rate_latency_ms_p99", "ms", p99, fmt.Sprintf("%d samples, %d beyond", len(lat), beyond))
		res.show("cpu_cores", "ratio", cpu/wall, fmt.Sprintf("%d arrivals in %.3f s", arrivals, wall))
		res.show("unrated_frac", "ratio", float64(unrated)/fa, "")
		res.show("failed_frac", "ratio", ratio(float64(res.failed), float64(res.attempted)), "")
		res.show("control_bytes_per_update", "B", ratio(fanout, float64(st1.UpdatesSent-st0.UpdatesSent)), "")
		return res, nil
	}

	// Per-layer metrics of the traced windows; a "step" here is one daemon
	// iteration.
	clis, srvs := cursors(d.cliProbes), cursors(d.srvProbes)
	for _, w := range recvWindows {
		first := int64(-1)
		for _, r := range clis[0].until(w.end) {
			if r.write {
				tot.write += float64(r.end - r.start)
				tr.add("transport.write", r.start, r.end, -1, w.id)
			} else if first < 0 && r.end >= w.start {
				first = r.end
			}
		}
		if first >= 0 {
			tot.decode += float64(w.end - first)
			tr.add("transport.decode", first, w.end, w.span, w.id)
		}
	}
	for _, r := range clis[0].until(1 << 62) {
		if r.write {
			tot.write += float64(r.end - r.start)
			tr.add("transport.write", r.start, r.end, -1, 0)
		}
	}
	var req int64 = -1
	for _, r := range srvs[0].until(1 << 62) {
		switch {
		case !r.write && r.frames:
			if req < 0 {
				req = r.end
			}
		case r.write:
			if req >= 0 {
				tot.requests++
				tot.turnaround += float64(r.start - req)
				tr.add("server.turnaround", req, r.start, -1, 0)
				req = -1
			}
			tot.replyWrite += float64(r.end - r.start)
			tr.add("server.reply_write", r.start, r.end, -1, 0)
		}
	}
	iters := float64(tracedIters)
	if iters == 0 || tracedArrivals == 0 {
		return nil, errors.New("traced phase ran no iteration")
	}
	layerCommon(res, d, tr, &tot, iters, float64(tracedUpdates))
	layerCounts(res, d, st0, st1, float64(it1-it0), float64(it1-it0)/wall)
	res.set("server.turnaround_us_per_step", "us", usOf(ratio(tot.turnaround, float64(tot.requests))))
	res.set("bench.trace_overhead_frac", "ratio", median(latTraced)/median(lat)-1)
	lateP99, _ := tail(late, 0.99)
	res.show("bench.gen_late_ms_p99", "ms", lateP99, "open-loop generator lateness")
	rr, err := replay(d.topo, &x.log)
	if err != nil {
		return nil, err
	}
	if err := layerReplayWire(res, rr, d); err != nil {
		return nil, err
	}
	return res, tr.write(o.traceOut)
}
