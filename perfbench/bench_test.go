package main

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
)

func stream(seed uint64, n int) []flowlet {
	s := newSchedule(seed, 1024)
	out := make([]flowlet, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, s.start())
		if i%3 == 2 {
			out = append(out, s.endOldest())
		}
	}
	return out
}

func TestScheduleIsSeeded(t *testing.T) {
	a, b, c := stream(7, 500), stream(7, 500), stream(8, 500)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, event %d differs: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].Src == a[i].Dst || a[i].Src < 0 || a[i].Dst >= 1024 {
			t.Fatalf("event %d: bad endpoints %+v", i, a[i])
		}
	}
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same > len(a)/10 {
		t.Fatalf("different seeds share %d of %d events", same, len(a))
	}
}

func TestTailCountsBeyond(t *testing.T) {
	var s []float64
	for i := 1; i <= 1000; i++ {
		s = append(s, float64(i))
	}
	v, beyond := tail(s, 0.95)
	if v != 950 || beyond != 50 {
		t.Fatalf("p95 of 1..1000 = %v with %d beyond, want 950 with 50", v, beyond)
	}
	v, beyond = tail([]float64{1, 2, 2, 2, 3}, 0.5)
	if v != 2 || beyond != 1 {
		t.Fatalf("p50 with ties = %v with %d beyond, want 2 with 1", v, beyond)
	}
	if v, beyond = tail(nil, 0.5); !math.IsNaN(v) || beyond != 0 {
		t.Fatalf("empty sample gave %v, %d", v, beyond)
	}
}

func TestDigestCatchesFlippedRateBit(t *testing.T) {
	ups := []core.RateUpdate{{Flow: 1, Rate: 4.95e9}, {Flow: 2, Rate: 3.3e9}}
	want := []uint64{digest(ups)}
	ups[1].Rate = math.Float64frombits(math.Float64bits(ups[1].Rate) ^ 1)
	if err := compareDigests([]uint64{digest(ups)}, want); err == nil {
		t.Fatal("a flipped rate bit passed the replay check")
	}
	ups[1].Rate = 3.3e9
	if err := compareDigests([]uint64{digest(ups)}, want); err != nil {
		t.Fatalf("identical updates failed: %v", err)
	}
}

// twoFlows is a two-tier fabric with two flowlets that share a 10 Gb/s
// downlink.
func twoFlows(t *testing.T) (*topology.Topology, *flowTable) {
	t.Helper()
	topo, err := topology.NewTwoTier(topology.DefaultSimConfig())
	if err != nil {
		t.Fatal(err)
	}
	ft := &flowTable{}
	ft.start(flowlet{ID: 1, Src: 0, Dst: 5})
	ft.start(flowlet{ID: 2, Src: 1, Dst: 5})
	ft.apply([]core.RateUpdate{{Flow: 1, Rate: 4.9e9}, {Flow: 2, Rate: 4.9e9}})
	return topo, ft
}

func TestCheckerRejectsLinkOverCapacity(t *testing.T) {
	topo, ft := twoFlows(t)
	u, err := linkUtil(topo, topology.NewRouteCache(topo), ft)
	if err != nil || checkUtil(u) != nil {
		t.Fatalf("feasible allocation rejected: util %v, %v", u, err)
	}
	ft.apply([]core.RateUpdate{{Flow: 2, Rate: 5.2e9}})
	if u, _ = linkUtil(topo, topology.NewRouteCache(topo), ft); checkUtil(u) == nil {
		t.Fatalf("utilisation %v passed the capacity check", u)
	}
}

func TestCheckerRejectsLiveFlowWithoutRate(t *testing.T) {
	_, ft := twoFlows(t)
	nic := 10e9
	if err := checkLiveRates(ft, nic); err != nil {
		t.Fatalf("rated flows rejected: %v", err)
	}
	ft.start(flowlet{ID: 3, Src: 2, Dst: 7})
	if err := checkLiveRates(ft, nic); err == nil || !strings.Contains(err.Error(), "flow 3") {
		t.Fatalf("a live flow without a rate passed: %v", err)
	}
	ft.end(3)
	ft.apply([]core.RateUpdate{{Flow: 1, Rate: math.Inf(1)}})
	if err := checkLiveRates(ft, nic); err == nil {
		t.Fatal("an infinite rate passed")
	}
}

func TestCheckerRejectsDisagreement(t *testing.T) {
	_, ft := twoFlows(t)
	daemon := map[int64]float64{1: 4.9e9, 2: 4.9e9 * 1.005}
	if err := checkAgreement(ft, daemon, 0.01); err != nil {
		t.Fatalf("agreeing rates rejected: %v", err)
	}
	daemon[2] = 4.9e9 * 1.02
	if err := checkAgreement(ft, daemon, 0.01); err == nil {
		t.Fatal("a 2% disagreement passed")
	}
	delete(daemon, 2)
	if err := checkAgreement(ft, daemon, 0.01); err == nil {
		t.Fatal("a flow unknown to the daemons passed")
	}
}
