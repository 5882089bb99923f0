package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/topology"
	"repro/internal/transport"
)

// client is what the closed-loop workloads drive: transport.AllocClient and
// transport.ShardedClient both provide it.
type client interface {
	FlowletStartSized(id core.FlowID, src, dst int, weight float64, size int64) error
	FlowletEnd(id core.FlowID) error
	Step() ([]core.RateUpdate, error)
}

// deployment is a set of running daemons and one connected client.
type deployment struct {
	topo    *topology.Topology
	servers []*server.Server
	cli     client
	// alloc is the single daemon's client (nil for the sharded mesh).
	alloc *transport.AllocClient
	// Probes of the client connections, the daemon side of each (same
	// order), and the peer mesh; empty when untraced.
	cliProbes, srvProbes, peerProbes []*probe
	wg                               sync.WaitGroup
	closeCli                         func() error
}

// close stops the client and every daemon and waits for their goroutines.
func (d *deployment) close() {
	if d.closeCli != nil {
		d.closeCli()
	}
	for _, s := range d.servers {
		s.Close()
	}
	d.wg.Wait()
}

// fatTree16 is the k=16 fat-tree (1024 hosts) with DefaultSimConfig links.
func fatTree16() (*topology.Topology, error) {
	base := topology.DefaultSimConfig()
	return topology.NewFatTree(topology.FatTreeConfig{
		K:             16,
		LinkCapacity:  base.LinkCapacity,
		LinkDelay:     base.LinkDelay,
		HostDelay:     base.HostDelay,
		WithAllocator: true,
	})
}

// twoTier32 is the sharded workload's fabric: 32 racks of 32 hosts, 16
// spines, 10 Gb/s links.
func twoTier32() (*topology.Topology, error) {
	cfg := topology.DefaultSimConfig()
	cfg.Racks, cfg.ServersPerRack, cfg.Spines, cfg.LinkCapacity = 32, 32, 16, 10e9
	return topology.NewTwoTier(cfg)
}

// deploySingle boots one daemon on a k=16 fat-tree, serves it on loopback
// TCP and connects one client.
func deploySingle(pr *prober, interval time.Duration) (*deployment, error) {
	topo, err := fatTree16()
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Topology: topo, Interval: interval})
	if err != nil {
		return nil, err
	}
	d := &deployment{topo: topo, servers: []*server.Server{srv}}
	accepted := make(chan *probe, 1) // one client connects
	ln, err := pr.listen(accepted)
	if err != nil {
		d.close()
		return nil, err
	}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		srv.Serve(ln)
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		d.close()
		return nil, fmt.Errorf("dial daemon: %w", err)
	}
	conn, cp := pr.wrap(conn, true)
	cli, err := transport.NewAllocClient(conn, 1)
	if err != nil {
		conn.Close()
		d.close()
		return nil, err
	}
	d.cli, d.alloc, d.closeCli = cli, cli, cli.Close
	if cp != nil {
		d.cliProbes = []*probe{cp}
		d.srvProbes = []*probe{<-accepted}
	}
	return d, nil
}

// deploySharded boots a two-shard cluster of sequential step-driven daemons
// the way cluster.New does — server.New, then a full peer mesh of in-memory
// pipes joined with ConnectPeer — so the peer pipes can be probed, and
// connects a ShardedClient over one pipe per daemon.
func deploySharded(pr *prober) (*deployment, error) {
	const shards = 2
	topo, err := twoTier32()
	if err != nil {
		return nil, err
	}
	smap, err := topology.NewShardMap(topo, shards)
	if err != nil {
		return nil, err
	}
	d := &deployment{topo: topo}
	serve := func(s *server.Server, conn net.Conn) {
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			s.ServeConn(conn)
		}()
	}
	for i := 0; i < shards; i++ {
		srv, err := server.New(server.Config{Topology: topo, NumShards: shards, ShardIndex: i})
		if err != nil {
			d.close()
			return nil, err
		}
		d.servers = append(d.servers, srv)
	}
	for i := 0; i < shards; i++ {
		for j := 0; j < shards; j++ {
			if i == j {
				continue
			}
			out, in := net.Pipe()
			out, po := pr.wrap(out, false)
			in, pi := pr.wrap(in, false)
			if po != nil {
				d.peerProbes = append(d.peerProbes, po, pi)
			}
			serve(d.servers[j], in)
			if _, err := d.servers[i].ConnectPeer(out); err != nil {
				d.close()
				return nil, fmt.Errorf("peer %d→%d: %w", i, j, err)
			}
		}
	}
	conns := make([]net.Conn, shards)
	for i, srv := range d.servers {
		cliEnd, srvEnd := net.Pipe()
		srvEnd, sp := pr.wrap(srvEnd, false)
		cliEnd, cp := pr.wrap(cliEnd, true)
		if sp != nil {
			d.srvProbes = append(d.srvProbes, sp)
			d.cliProbes = append(d.cliProbes, cp)
		}
		serve(srv, srvEnd)
		conns[i] = cliEnd
	}
	cli, err := transport.NewShardedClient(conns, smap, 1)
	if err != nil {
		d.close()
		return nil, err
	}
	d.cli, d.closeCli = cli, cli.Close
	return d, nil
}

// daemonRates merges every daemon's current rates.
func (d *deployment) daemonRates() map[int64]float64 {
	out := make(map[int64]float64)
	for _, s := range d.servers {
		for id, r := range s.Rates() {
			out[int64(id)] = r
		}
	}
	return out
}

// statsSum sums the daemons' counters.
func (d *deployment) statsSum() server.Stats {
	var t server.Stats
	for _, s := range d.servers {
		st := s.Stats()
		t.EventsReceived += st.EventsReceived
		t.UpdatesSent += st.UpdatesSent
		t.UpdatesCoalesced += st.UpdatesCoalesced
		t.FanoutBytes += st.FanoutBytes
		t.ExchangeBytes += st.ExchangeBytes
		t.ExchangeFolds += st.ExchangeFolds
		t.ExchangeStalenessIters += st.ExchangeStalenessIters
	}
	return t
}

// iterations sums the daemons' iteration counters.
func (d *deployment) iterations() uint64 {
	var n uint64
	for _, s := range d.servers {
		n += s.Iterations()
	}
	return n
}

// iterateP50us averages the daemons' loop-latency medians, in µs.
func (d *deployment) iterateP50us() float64 {
	var v []float64
	for _, s := range d.servers {
		v = append(v, s.LoopStats().LatencySec.P50*1e6)
	}
	return mean(v)
}
