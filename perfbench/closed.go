package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/server"
	"repro/internal/topology"
)

// setupReps is how many times each run builds its set-up; setup_s is the
// median and the last build is the one measured.
const setupReps = 5

// closedSpec describes a closed-loop workload: one client that ends and
// starts flowlets and then calls Step, waiting for each reply.
type closedSpec struct {
	deploy func(pr *prober) (*deployment, error)
	// initial flowlets are folded in by the first Step.
	initial int
	// setupSteps more Steps run in set-up; untilQuiet instead steps until a
	// Step returns no updates.
	setupSteps int
	untilQuiet bool
	// churn flowlets end (oldest first) and churn start before every timed
	// Step.
	churn int
	// checkpointEvery is the number of timed Steps between link-utilisation
	// checkpoints.
	checkpointEvery int
	// heapSteps is the Step after which peak_heap_mb is read. The live heap
	// grows with the Steps run (the operation log, the daemon's route cache),
	// so it is read at a fixed count, not at the deadline; a run that has not
	// reached it by then keeps stepping, untimed, until it has.
	heapSteps int
	// replayCheck requires the client's decoded updates to match an
	// in-process replay bit for bit; gateUtil requires max_link_util <= 1;
	// agreement requires client-held rates to match the daemons'.
	replayCheck, gateUtil, agreement bool
	// logMarks caps the operation log, and so the timing-only replay of a
	// traced run without replayCheck (0 keeps it all).
	logMarks int
	// bytesPerUpdate prints control_bytes_per_update (V has no updates).
	bytesPerUpdate bool
}

func runChurn100k(o options) (*result, error) {
	return runClosed(o, closedSpec{
		deploy:          func(pr *prober) (*deployment, error) { return deploySingle(pr, 0) },
		initial:         100_000,
		churn:           1000,
		checkpointEvery: 25,
		heapSteps:       150,
		replayCheck:     true,
		gateUtil:        true,
		bytesPerUpdate:  true,
	})
}

func runConverged10k(o options) (*result, error) {
	return runClosed(o, closedSpec{
		deploy:          func(pr *prober) (*deployment, error) { return deploySingle(pr, 0) },
		initial:         10_000,
		untilQuiet:      true,
		checkpointEvery: 1000,
		heapSteps:       5000,
		replayCheck:     true,
		gateUtil:        true,
	})
}

func runShardedChurn(o options) (*result, error) {
	return runClosed(o, closedSpec{
		deploy:          deploySharded,
		initial:         20_000,
		setupSteps:      300,
		churn:           20,
		checkpointEvery: 100,
		heapSteps:       2000,
		agreement:       true,
		logMarks:        600,
		bytesPerUpdate:  true,
	})
}

// closedInst is one set-up deployment with the client-side record of it.
type closedInst struct {
	d       *deployment
	sched   *schedule
	log     opLog
	digests []uint64
	flows   flowTable
}

// step runs one Step and records what it returned.
func (x *closedInst) step() (int, error) {
	ups, err := x.d.cli.Step()
	if err != nil {
		return 0, err
	}
	x.log.mark()
	x.digests = append(x.digests, digest(ups))
	x.flows.apply(ups)
	return len(ups), nil
}

// churn appends to evs the events that end the n oldest flowlets and start
// n new ones.
func (x *closedInst) churn(evs []event, n int) []event {
	for i := 0; i < n; i++ {
		evs = append(evs, event{end: true, f: x.sched.endOldest()})
	}
	for i := 0; i < n; i++ {
		evs = append(evs, event{f: x.sched.start()})
	}
	return evs
}

func (x *closedInst) sendAll(evs []event) error {
	for _, e := range evs {
		if err := x.send(e); err != nil {
			return err
		}
	}
	return nil
}

func (x *closedInst) send(e event) error {
	x.log.add(e)
	if e.end {
		x.flows.end(e.f.ID)
		return x.d.cli.FlowletEnd(e.f.ID)
	}
	x.flows.start(e.f)
	return x.d.cli.FlowletStartSized(e.f.ID, e.f.Src, e.f.Dst, 1, e.f.Size)
}

func setupClosed(o options, spec closedSpec, pr *prober) (*closedInst, error) {
	d, err := spec.deploy(pr)
	if err != nil {
		return nil, err
	}
	x := &closedInst{d: d, sched: newSchedule(o.seed, d.topo.NumServers()), log: opLog{limit: spec.logMarks}}
	fail := func(err error) (*closedInst, error) {
		d.close()
		return nil, fmt.Errorf("set-up: %w", err)
	}
	for i := 0; i < spec.initial; i++ {
		if err := x.send(event{f: x.sched.start()}); err != nil {
			return fail(err)
		}
	}
	n, err := x.step()
	if err != nil {
		return fail(err)
	}
	for steps := 1; spec.untilQuiet && n > 0; steps++ {
		if steps > 20_000 {
			return fail(errors.New("no quiet step within 20000 steps"))
		}
		if n, err = x.step(); err != nil {
			return fail(err)
		}
	}
	for i := 0; i < spec.setupSteps; i++ {
		if _, err := x.step(); err != nil {
			return fail(err)
		}
	}
	return x, nil
}

// setupMany builds the set-up setupReps times, keeping the last build, and
// returns it with the build times in seconds.
func setupMany[T any](build func() (T, error), closeOld func(T)) (T, []float64, error) {
	var x T
	var times []float64
	for r := 0; r < setupReps; r++ {
		if r > 0 {
			closeOld(x)
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if x, err = build(); err != nil {
			return x, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	runtime.GC()
	return x, times, nil
}

// stepWindow is one traced Step.
type stepWindow struct {
	span       int
	id         int64
	start, end int64
}

func runClosed(o options, spec closedSpec) (*result, error) {
	tr := newTracer()
	pr := &prober{captureCap: 16 << 20}
	if o.traced {
		pr.tr = tr
	}
	x, setups, err := setupMany(func() (*closedInst, error) { return setupClosed(o, spec, pr) },
		func(x *closedInst) { x.d.close() })
	if err != nil {
		return nil, err
	}
	defer x.d.close()
	d := x.d
	res := newResult()
	heapMB := 0.0
	rc := topology.NewRouteCache(d.topo)

	var lat, latTraced []float64
	var windows []stepWindow
	var tot ioTotals
	var tracedSteps, tracedUpdates int
	var evs []event
	maxUtil, excluded := 0.0, 0.0
	st0, it0 := d.statsSum(), d.iterations()

	// afterStep runs the link-utilisation checkpoint and the heap reading
	// due after step n, and leaves their CPU time out of the timed phase's.
	afterStep := func(n int) error {
		if n%spec.checkpointEvery != 0 && n != spec.heapSteps {
			return nil
		}
		c0 := cpuSeconds()
		defer func() { excluded += cpuSeconds() - c0 }()
		if n%spec.checkpointEvery == 0 {
			u, err := linkUtil(d.topo, rc, &x.flows)
			if err != nil {
				return err
			}
			maxUtil = max(maxUtil, u)
		}
		if n == spec.heapSteps {
			heapMB = liveHeapMB()
		}
		return nil
	}

	cpu0, start := cpuSeconds(), time.Now()
	steps := 0
	for time.Since(start) < o.duration {
		// A traced run records every other step, so the untraced steps
		// between them measure the tracing overhead under the same
		// conditions.
		tr.on.Store(o.traced && steps%2 == 1)
		evs = x.churn(evs[:0], spec.churn)
		encS := tr.now()
		err := x.sendAll(evs)
		encE := tr.now()
		n := 0
		if err == nil {
			n, err = x.step()
		}
		stepE := tr.now()
		res.attempted++
		if err != nil {
			res.failed++
			res.check(fmt.Errorf("step %d: %w", steps, err))
			break
		}
		ms := float64(stepE-encE) / 1e6
		if tr.on.Load() {
			latTraced = append(latTraced, ms)
			root := tr.add("round", encS, stepE, -1, int64(steps))
			tr.add("transport.encode", encS, encE, root, int64(steps))
			sp := tr.add("transport.step", encE, stepE, root, int64(steps))
			windows = append(windows, stepWindow{span: sp, id: int64(steps), start: encE, end: stepE})
			tot.encode += float64(encE - encS)
			tracedSteps++
			tracedUpdates += n
		} else {
			lat = append(lat, ms)
		}
		steps++
		if err := afterStep(steps); err != nil {
			return nil, err
		}
	}
	wall := time.Since(start).Seconds()
	cpu := cpuSeconds() - cpu0 - excluded
	st1, it1 := d.statsSum(), d.iterations()
	tr.on.Store(false)
	if steps == 0 {
		return nil, errors.New("no step completed")
	}
	for k := steps + 1; res.failed == 0 && k <= spec.heapSteps; k++ {
		res.attempted++
		evs = x.churn(evs[:0], spec.churn)
		err := x.sendAll(evs)
		if err == nil {
			_, err = x.step()
		}
		if err != nil {
			res.failed++
			res.check(fmt.Errorf("untimed step %d: %w", k, err))
			break
		}
		if err := afterStep(k); err != nil {
			return nil, err
		}
	}

	// Output checks, after the timed window.
	u, err := linkUtil(d.topo, rc, &x.flows)
	if err != nil {
		return nil, err
	}
	maxUtil = max(maxUtil, u)
	var rr *replayResult
	if spec.replayCheck {
		if rr, err = replay(d.topo, &x.log); err != nil {
			return nil, err
		}
		res.check(compareDigests(x.digests, rr.digests))
	} else if o.traced {
		if rr, err = replay(d.topo, &x.log); err != nil {
			return nil, err
		}
	}
	if spec.gateUtil {
		res.check(checkUtil(maxUtil))
	}
	nic := d.topo.Config().LinkCapacity
	res.check(checkLiveRates(&x.flows, nic))
	if spec.agreement {
		res.check(checkAgreement(&x.flows, d.daemonRates(), 0.01))
	}

	if !o.traced {
		setupS := median(setups)
		p50, _ := tail(lat, 0.5)
		p95, beyond := tail(lat, 0.95)
		fn := float64(steps)
		res.set("setup_s", "s", setupS)
		res.set("latency_ms_mean", "ms", mean(lat))
		res.set("latency_ms_p95", "ms", p95)
		res.set("cpu_ms_per_op", "ms", cpu*1e3/fn)
		res.set("peak_heap_mb", "MB", heapMB)
		res.show("step_ms_p50", "ms", p50, fmt.Sprintf("%d samples; %s", len(lat), deciles(lat)))
		res.show("step_ms_p95", "ms", p95, fmt.Sprintf("%d samples, %d beyond", len(lat), beyond))
		res.show("cpu_ms_per_step", "ms", cpu*1e3/fn, fmt.Sprintf("%.3f s CPU over %.3f s", cpu, wall))
		res.show("failed_frac", "ratio", ratio(float64(res.failed), float64(res.attempted)), "")
		if spec.bytesPerUpdate {
			res.show("control_bytes_per_update", "B",
				ratio(float64(st1.FanoutBytes-st0.FanoutBytes), float64(st1.UpdatesSent-st0.UpdatesSent)), "")
		}
		utilNote := ""
		if !spec.gateUtil {
			utilNote = "not gated: known sharded feasibility gap, see NOTES.md"
		}
		res.show("max_link_util", "ratio", maxUtil, utilNote)
		return res, nil
	}

	// Per-layer metrics of the traced steps.
	cli, srv, peers := cursors(d.cliProbes), cursors(d.srvProbes), cursors(d.peerProbes)
	for _, w := range windows {
		attributeStep(tr, w.span, w.id, w.start, w.end, cli, srv, peers, &tot)
	}
	fs := float64(tracedSteps)
	if tracedSteps == 0 {
		return nil, errors.New("traced phase ran no step")
	}
	layerCommon(res, d, tr, &tot, fs, float64(tracedUpdates))
	layerCounts(res, d, st0, st1, float64(steps), float64(it1-it0)/wall)
	res.set("server.turnaround_us_per_step", "us", usOf(tot.turnaround/fs))
	res.set("bench.trace_overhead_frac", "ratio", median(latTraced)/median(lat)-1)
	if err := layerReplayWire(res, rr, d); err != nil {
		return nil, err
	}
	if len(d.peerProbes) > 0 {
		res.show("cluster.exchange_write_us_per_step", "us", usOf(tot.exchangeWrite/fs), "peer-pipe Write time")
	}
	return res, tr.write(o.traceOut)
}

// layerCommon sets the per-layer time metrics shared by every workload from
// the traced steps' totals; steps is the number of traced steps.
func layerCommon(res *result, d *deployment, tr *tracer, tot *ioTotals, steps, updates float64) {
	res.set("transport.encode_us_per_step", "us", usOf(tot.encode/steps))
	res.set("transport.write_us_per_step", "us", usOf(tot.write/steps))
	res.set("transport.decode_us_per_step", "us", usOf(tot.decode/steps))
	res.show("transport.decode_ns_per_update", "ns", ratio(tot.decode, updates), "")
	res.set("server.reply_write_us_per_step", "us", usOf(tot.replyWrite/steps))
	res.set("core.iterate_us_p50", "us", d.iterateP50us())
	self := tr.selfTime()
	for _, name := range []string{"transport.encode", "transport.step", "transport.write",
		"transport.decode", "transport.recv", "server.turnaround", "server.reply_write", "cluster.exchange_write"} {
		if v, ok := self[name]; ok {
			res.show("self."+name+"_us_per_step", "us", usOf(v/steps), "span self time")
		}
	}
}

// layerCounts sets the per-layer metrics taken from the daemons' counters
// over the whole timed phase; steps is the number of steps it ran.
func layerCounts(res *result, d *deployment, st0, st1 server.Stats, steps, itersPerSec float64) {
	res.set("server.events_per_step", "count", float64(st1.EventsReceived-st0.EventsReceived)/steps)
	res.set("server.updates_per_step", "count", float64(st1.UpdatesSent-st0.UpdatesSent)/steps)
	res.set("server.fanout_bytes_per_step", "B", float64(st1.FanoutBytes-st0.FanoutBytes)/steps)
	res.set("server.coalesced_frac", "ratio",
		ratio(float64(st1.UpdatesCoalesced-st0.UpdatesCoalesced), float64(st1.UpdatesSent-st0.UpdatesSent)))
	res.set("server.iterations_per_s", "1/s", itersPerSec)
	res.set("cluster.exchange_bytes_per_step", "B", float64(st1.ExchangeBytes-st0.ExchangeBytes)/steps)
	res.set("cluster.exchange_folds_per_step", "count", float64(st1.ExchangeFolds-st0.ExchangeFolds)/steps)
	res.set("cluster.staleness_iters_mean", "count",
		ratio(float64(st1.ExchangeStalenessIters-st0.ExchangeStalenessIters), float64(st1.ExchangeFolds-st0.ExchangeFolds)))
}

// layerReplayWire sets the solver-split and wire-codec metrics.
func layerReplayWire(res *result, rr *replayResult, d *deployment) error {
	it := float64(rr.iterations)
	res.set("core.threshold_us", "us", usOf(float64((rr.iterate-rr.ned-rr.fnorm).Nanoseconds())/it))
	res.set("core.flowlet_add_ns", "ns", ratio(float64(rr.addTime.Nanoseconds()), float64(rr.adds)))
	res.show("core.flowlet_end_ns", "ns", ratio(float64(rr.endTime.Nanoseconds()), float64(rr.ends)),
		fmt.Sprintf("%d ends replayed", rr.ends))
	res.set("num.ned_step_us", "us", usOf(float64(rr.ned.Nanoseconds())/it))
	res.set("norm.fnorm_us", "us", usOf(float64(rr.fnorm.Nanoseconds())/it))
	var streams [][]byte
	for _, p := range d.cliProbes {
		streams = append(streams, p.captured)
	}
	w, err := timeWire(streams)
	if err != nil {
		return err
	}
	res.set("wire.rate_delta_encode_ns_per_entry", "ns", w.encodeNs)
	res.set("wire.rate_delta_decode_ns_per_entry", "ns", w.decodeNs)
	res.set("wire.bytes_per_entry", "B", ratio(float64(w.frameBytes), float64(w.entries)))
	return nil
}
