package main

import (
	"math/rand/v2"

	"repro/internal/core"
)

// flowlet is one generated flowlet registration.
type flowlet struct {
	ID       core.FlowID
	Src, Dst int
	Size     int64 // flowlet-size hint in bytes
}

// schedule is the seeded event generator every workload draws from. It hands
// out uniform flowlets (source and destination drawn independently over all
// hosts, never equal) with sequential IDs, and remembers the live ones in
// start order so closed-loop churn can end the oldest first. The same seed
// gives the same stream.
type schedule struct {
	rng   *rand.Rand
	hosts int
	next  core.FlowID
	live  []flowlet // FIFO: live[head:] are live, oldest first
	head  int
}

func newSchedule(seed uint64, hosts int) *schedule {
	return &schedule{rng: rand.New(rand.NewPCG(seed, 0x666c6f7774756e65)), hosts: hosts, next: 1}
}

// start draws a new flowlet and records it as live.
func (s *schedule) start() flowlet {
	src := s.rng.IntN(s.hosts)
	dst := s.rng.IntN(s.hosts - 1)
	if dst >= src {
		dst++
	}
	f := flowlet{ID: s.next, Src: src, Dst: dst, Size: 1000 + s.rng.Int64N(1<<20)}
	s.next++
	s.live = append(s.live, f)
	return f
}

// endOldest retires the oldest live flowlet.
func (s *schedule) endOldest() flowlet {
	f := s.live[s.head]
	s.head++
	if s.head > 4096 && s.head*2 > len(s.live) {
		s.live = append(s.live[:0], s.live[s.head:]...)
		s.head = 0
	}
	return f
}

// numLive returns the number of live flowlets.
func (s *schedule) numLive() int { return len(s.live) - s.head }

// exp draws an exponential variate with the given mean.
func (s *schedule) exp(mean float64) float64 { return s.rng.ExpFloat64() * mean }

// event is one flowlet notification in an operation log.
type event struct {
	end bool
	f   flowlet
}

// opLog records what a client sent, in order: events, with the index into
// events at which each step (or flush round) was taken. Replays walk it.
// With a limit it stops recording after that many marks.
type opLog struct {
	events []event
	marks  []int
	limit  int
}

func (l *opLog) full() bool { return l.limit > 0 && len(l.marks) >= l.limit }

func (l *opLog) add(e event) {
	if !l.full() {
		l.events = append(l.events, e)
	}
}

func (l *opLog) mark() {
	if !l.full() {
		l.marks = append(l.marks, len(l.events))
	}
}
