package server

import (
	"slices"

	"repro/internal/core"
)

// flowTable is the daemon's per-flow state, one dense slot per registered
// flowlet. A FlowID is resolved to its slot only when an event is folded in
// (add, end, adoption, restore, replica adoption); both engines carry the
// slot with the flow and echo it in every core.RateUpdate, so the
// per-iteration work — the step reply, the pending purge, the last-sent
// shadow and asynchronous queueing — is a walk over the update slice that
// indexes slots directly. Freed slots are reused through a free list.
// Guarded by Server.mu.
type flowTable struct {
	index map[core.FlowID]int32
	slots []flowSlot
	free  []int32
}

// flowSlot is one registered flowlet's daemon-side state.
type flowSlot struct {
	id core.FlowID
	// owner is the session that registered the flow. nil means unowned: the
	// flow was restored from a snapshot, seeded from a peer replica, or left
	// behind by a client that disconnected from a draining daemon, and a
	// re-registration with the same src, dst and weight adopts it.
	owner *session
	// weight, src and dst are the registration, as the adoption check
	// compares it.
	weight   float64
	src, dst int32
	// pending is the latest rate queued for the owner's asynchronous writer
	// (valid while slotPending is set; the owner's dirty list holds the
	// slot).
	pending float64
	// shadow is the last rate value sent to the owner on a v4 session — the
	// float64 bits, or the quantized Mbps in QuantizeRates mode — so the
	// writer skips resending an unchanged rate (valid while slotShadow is
	// set).
	shadow uint64
	flags  uint8
}

const (
	slotPending uint8 = 1 << iota
	slotShadow
)

// nextSlot is the slot the next insert will use.
func (t *flowTable) nextSlot() int32 {
	if n := len(t.free); n > 0 {
		return t.free[n-1]
	}
	return int32(len(t.slots))
}

// insert registers id in the slot nextSlot returned and returns it.
func (t *flowTable) insert(id core.FlowID, owner *session, src, dst int, weight float64) int32 {
	if t.index == nil {
		t.index = make(map[core.FlowID]int32)
	}
	slot := t.nextSlot()
	if int(slot) == len(t.slots) {
		t.slots = append(t.slots, flowSlot{})
	} else {
		t.free = t.free[:len(t.free)-1]
	}
	t.slots[slot] = flowSlot{id: id, owner: owner, weight: weight, src: int32(src), dst: int32(dst)}
	t.index[id] = slot
	if owner != nil {
		owner.nflows++
	}
	return slot
}

// remove frees a slot. A copy of it left in the former owner's dirty list
// is harmless: the writer skips every slot whose pending bit is clear or that
// another session owns.
func (t *flowTable) remove(slot int32) {
	sl := &t.slots[slot]
	if sl.owner != nil {
		sl.owner.nflows--
	}
	delete(t.index, sl.id)
	*sl = flowSlot{}
	t.free = append(t.free, slot)
}

// setOwner transfers a flow to owner (nil makes it unowned). Any rate
// queued for the previous owner and the previous owner's shadow are
// dropped, so the new owner's first rate always reaches the wire.
func (t *flowTable) setOwner(slot int32, owner *session) {
	sl := &t.slots[slot]
	if sl.owner != nil {
		sl.owner.nflows--
	}
	if owner != nil {
		owner.nflows++
	}
	sl.owner = owner
	sl.flags = 0
}

// owned returns the IDs of the flows sess owns, sorted.
func (t *flowTable) owned(sess *session) []core.FlowID {
	if sess.nflows == 0 {
		return nil
	}
	ids := make([]core.FlowID, 0, sess.nflows)
	for i := range t.slots {
		if t.slots[i].owner == sess {
			ids = append(ids, t.slots[i].id)
		}
	}
	slices.Sort(ids)
	return ids
}

// disown makes every flow sess owns unowned.
func (t *flowTable) disown(sess *session) {
	for i := range t.slots {
		if sess.nflows == 0 {
			return
		}
		if t.slots[i].owner == sess {
			t.setOwner(int32(i), nil)
		}
	}
}

// clearShadow forgets the last-sent rates of every flow sess owns, so the
// next rate of each goes out in full.
func (t *flowTable) clearShadow(sess *session) {
	if sess.nflows == 0 {
		return
	}
	for i := range t.slots {
		if t.slots[i].owner == sess {
			t.slots[i].flags &^= slotShadow
		}
	}
}
