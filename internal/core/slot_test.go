package core

import "testing"

// TestFlowSlotsFollowSwaps pins the slot echo both allocators offer the
// daemon: a slot set with SetFlowSlot travels with its flow through the
// swap-removes (and, in the parallel allocator, arena compactions) churn
// causes, so every RateUpdate carries its own flow's slot.
func TestFlowSlotsFollowSwaps(t *testing.T) {
	topo := parallelTestTopo(t, 8)
	seq, err := NewAllocator(Config{Topology: topo, UpdateThreshold: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewParallelAllocator(ParallelConfig{Topology: topo, Blocks: 4, Normalize: true})
	if err != nil {
		t.Fatal(err)
	}
	defer par.Close()
	type starter interface {
		FlowletStart(id FlowID, src, dst int, weight float64) error
		SetFlowSlot(id FlowID, slot int32) error
		FlowletEnd(id FlowID) error
	}
	iterate := map[string]func() []RateUpdate{
		"sequential": seq.Iterate,
		"parallel": func() []RateUpdate {
			par.Iterate()
			return par.AppendUpdates(1e-12, nil)
		},
	}
	for name, a := range map[string]starter{"sequential": seq, "parallel": par} {
		flows := randomParallelFlows(topo.NumServers(), 600, 3)
		for _, f := range flows {
			if err := a.FlowletStart(f.ID, f.Src, f.Dst, 1); err != nil {
				t.Fatal(err)
			}
			if err := a.SetFlowSlot(f.ID, int32(f.ID)*7); err != nil {
				t.Fatal(err)
			}
		}
		// Retire two thirds of the flows, from the front, so nearly every
		// removal swaps a later flow into the hole.
		live := 0
		for i, f := range flows {
			if i%3 != 2 {
				if err := a.FlowletEnd(f.ID); err != nil {
					t.Fatal(err)
				}
				continue
			}
			live++
		}
		ups := iterate[name]()
		if len(ups) != live {
			t.Fatalf("%s: %d updates after the first iteration, want one per live flow (%d)", name, len(ups), live)
		}
		for _, u := range ups {
			if u.Slot != int32(u.Flow)*7 {
				t.Fatalf("%s: flow %d reported slot %d, want %d", name, u.Flow, u.Slot, int32(u.Flow)*7)
			}
		}
		if err := a.SetFlowSlot(FlowID(1<<40), 1); err == nil {
			t.Fatalf("%s: SetFlowSlot accepted an unregistered flow", name)
		}
	}
}
