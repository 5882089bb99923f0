package main

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/topology"
)

// digest folds an update sequence — flow ID and rate bits, in order — into
// a 64-bit FNV-1a hash.
func digest(ups []core.RateUpdate) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	mix(uint64(len(ups)))
	for _, u := range ups {
		mix(uint64(u.Flow))
		mix(math.Float64bits(u.Rate))
	}
	return h
}

// compareDigests requires the client's per-step digests to equal the
// replay's, step for step.
func compareDigests(client, replay []uint64) error {
	if len(client) != len(replay) {
		return fmt.Errorf("check: client saw %d steps, replay ran %d", len(client), len(replay))
	}
	bad, first := 0, -1
	for i := range client {
		if client[i] != replay[i] {
			if first < 0 {
				first = i
			}
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("check: %d of %d steps differ from the in-process replay (first at step %d)", bad, len(client), first)
	}
	return nil
}

// flowTable is the client-held view of every flowlet, indexed by flow ID
// (IDs are handed out sequentially from 1).
type flowTable struct {
	src, dst []int32
	rate     []float64
	live     []bool
	nLive    int
}

func (t *flowTable) grow(id core.FlowID) {
	for int(id) >= len(t.live) {
		t.src = append(t.src, 0)
		t.dst = append(t.dst, 0)
		t.rate = append(t.rate, 0)
		t.live = append(t.live, false)
	}
}

func (t *flowTable) start(f flowlet) {
	t.grow(f.ID)
	t.src[f.ID], t.dst[f.ID], t.rate[f.ID] = int32(f.Src), int32(f.Dst), 0
	if !t.live[f.ID] {
		t.live[f.ID] = true
		t.nLive++
	}
}

func (t *flowTable) end(id core.FlowID) {
	if int(id) < len(t.live) && t.live[id] {
		t.live[id] = false
		t.nLive--
	}
}

// apply records decoded rates; updates for flows not live are ignored.
func (t *flowTable) apply(ups []core.RateUpdate) {
	for _, u := range ups {
		if int(u.Flow) < len(t.live) && t.live[u.Flow] {
			t.rate[u.Flow] = u.Rate
		}
	}
}

// linkUtil returns the largest, over links, of the client-held rates of the
// live flows crossing the link divided by its capacity. Routes come from the
// same ECMP hash the allocator uses (flow ID as the route choice).
func linkUtil(topo *topology.Topology, rc *topology.RouteCache, t *flowTable) (float64, error) {
	loads := make([]float64, topo.NumLinks())
	for id, live := range t.live {
		if !live {
			continue
		}
		route, err := rc.Route(int(t.src[id]), int(t.dst[id]), id)
		if err != nil {
			return 0, fmt.Errorf("check: flow %d: %w", id, err)
		}
		for _, l := range route {
			loads[l] += t.rate[id]
		}
	}
	worst := 0.0
	for l, load := range loads {
		worst = max(worst, load/topo.Link(topology.LinkID(l)).Capacity)
	}
	return worst, nil
}

// checkUtil requires the utilisation to be at most 1.
func checkUtil(util float64) error {
	if !(util <= 1) {
		return fmt.Errorf("check: a link is over capacity: max utilisation %.6f", util)
	}
	return nil
}

// checkLiveRates requires every live flow to hold a finite rate in (0, nic].
func checkLiveRates(t *flowTable, nic float64) error {
	for id, live := range t.live {
		if !live {
			continue
		}
		r := t.rate[id]
		if !(r > 0 && r <= nic) || math.IsInf(r, 0) {
			return fmt.Errorf("check: live flow %d holds rate %g, want a finite rate in (0, %g]", id, r, nic)
		}
	}
	return nil
}

// checkAgreement requires every live flow's client-held rate to match the
// daemon's current rate under the engine's own update-suppression rule.
func checkAgreement(t *flowTable, daemon map[int64]float64, threshold float64) error {
	for id, live := range t.live {
		if !live {
			continue
		}
		want, ok := daemon[int64(id)]
		if !ok {
			return fmt.Errorf("check: live flow %d is unknown to the daemons", id)
		}
		if core.SignificantRateChange(t.rate[id], want, threshold) {
			return fmt.Errorf("check: flow %d: client holds %g, daemon has %g", id, t.rate[id], want)
		}
	}
	return nil
}
