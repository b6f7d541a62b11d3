// Package faults provides a deterministic, seedable fault injector for the
// peer transports.  Every transport consults an optional Injector at the top
// of its Send path (Hook.Apply) and either passes the frame through, drops it silently
// (lost on the wire), delays it, duplicates it, or refuses it with an error —
// the failure modes a real fabric exhibits.  Rules select frames by position
// (every Nth, after a warm-up offset, up to a limit) or by seeded
// probability, so fault schedules are reproducible: the same seed and the
// same send sequence always yield the same faults.  The health monitor,
// the PTA retry policy, the failover path and the chaos harness
// (internal/chaos) are all tested against it.
//
// # Per-peer streams
//
// The transports key the injector by destination: Send paths call
// NextFor(peer), which draws from a per-peer stream whose generator is
// seeded independently (derived from the injector seed and the peer
// identity) and whose sequence counter counts only that peer's frames.
// This is what keeps chaos runs deterministic under parallel dispatchers:
// frames for different peers are interleaved nondeterministically by the
// scheduler, but each peer's own frame sequence is totally ordered by the
// transport (a send ring, a NIC queue, a synchronous deliver), so the
// verdict for "the Nth frame to peer P" never depends on cross-peer
// timing.  A single shared generator — the original design — made every
// verdict depend on the global arrival order and turned any multi-worker
// run into a new schedule.
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"xdaq/internal/i2o"
)

// Op is what the injector does to one frame.
type Op int

const (
	// Pass lets the frame through untouched.
	Pass Op = iota

	// Drop discards the frame silently; the send reports success, exactly
	// like a datagram lost on the wire.
	Drop

	// Delay holds the sending goroutine for the rule's duration, then
	// passes the frame through.
	Delay

	// Error refuses the frame: the send fails with the rule's error (or a
	// generated one wrapping ErrInjected).
	Error

	// Duplicate sends the frame twice — the retransmission a real fabric
	// produces when an ack is lost.  The duplicate does not consult the
	// injector again, so one rule hit yields exactly two wire frames.
	Duplicate
)

func (o Op) String() string {
	switch o {
	case Pass:
		return "pass"
	case Drop:
		return "drop"
	case Delay:
		return "delay"
	case Error:
		return "error"
	case Duplicate:
		return "dup"
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// ErrInjected marks errors produced by an injector.  It counts as a
// transient transport error for the PTA retry policy, so injected refusals
// exercise the same code path as real fabric hiccups.
var ErrInjected = errors.New("faults: injected transport error")

// Rule selects frames and the fault to apply to them.  A frame is hit when
// its sequence number (1-based, counted per stream) is past After and
// either lands on an Nth multiple or wins the probability roll.  A zero
// Rule never matches.
type Rule struct {
	// Op is the fault to apply.
	Op Op

	// Nth hits every Nth frame counted from After (1 hits every frame).
	Nth uint64

	// Prob hits each frame independently with this probability, using the
	// stream's seeded generator.
	Prob float64

	// After skips the first After frames of each stream entirely (warm-up
	// traffic).
	After uint64

	// Limit caps how many frames this rule may hit per stream; 0 is
	// unlimited.  Per stream — not global — because a global budget shared
	// between peers would make each stream's schedule depend on cross-peer
	// arrival order again.
	Limit uint64

	// Delay is the hold time for Op == Delay.
	Delay time.Duration

	// Err overrides the generated error for Op == Error.  It should wrap
	// ErrInjected if retry behavior is under test.
	Err error
}

// Action is the injector's verdict for one frame.
type Action struct {
	Op    Op
	Delay time.Duration
	Err   error
}

// stream is one independent fault sequence: its own seeded generator, its
// own frame counter, its own per-rule hit counts.
type stream struct {
	rng     *rand.Rand
	seq     uint64
	applied []uint64
}

// Injector applies an ordered rule list to send sequences.  It is safe for
// concurrent use; the mutex serializes verdicts, but because verdicts for
// different peers come from independent streams, the schedule seen by any
// one peer does not depend on the interleaving.
type Injector struct {
	mu    sync.Mutex
	seed  int64
	rules []Rule
	peers map[uint64]*stream
}

// New returns an injector whose streams derive their generators from seed.
func New(seed int64) *Injector {
	return &Injector{seed: seed, peers: make(map[uint64]*stream)}
}

// Add appends a rule and returns the injector for chaining.
func (in *Injector) Add(r Rule) *Injector {
	in.mu.Lock()
	in.rules = append(in.rules, r)
	for _, s := range in.peers {
		s.applied = append(s.applied, 0)
	}
	in.mu.Unlock()
	return in
}

// splitmix64 is the seed-mixing finalizer (Steele et al.), used to derive a
// well-separated per-peer generator seed from (injector seed, peer id).
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// peerStream returns (creating if needed) the stream for peer; in.mu held.
func (in *Injector) peerStream(peer uint64) *stream {
	s := in.peers[peer]
	if s == nil {
		s = &stream{
			rng:     rand.New(rand.NewSource(int64(splitmix64(uint64(in.seed) ^ splitmix64(peer))))),
			applied: make([]uint64, len(in.rules)),
		}
		in.peers[peer] = s
	}
	return s
}

// step assigns the stream's next sequence number and returns the action for
// it; in.mu held.  The first matching rule wins.
func (in *Injector) step(s *stream) Action {
	s.seq++
	for i, r := range in.rules {
		if r.Limit > 0 && s.applied[i] >= r.Limit {
			continue
		}
		if s.seq <= r.After {
			continue
		}
		hit := r.Nth > 0 && (s.seq-r.After)%r.Nth == 0
		if !hit && r.Prob > 0 && s.rng.Float64() < r.Prob {
			hit = true
		}
		if !hit {
			continue
		}
		s.applied[i]++
		act := Action{Op: r.Op, Delay: r.Delay, Err: r.Err}
		if act.Op == Error && act.Err == nil {
			act.Err = fmt.Errorf("%w: frame %d", ErrInjected, s.seq)
		}
		return act
	}
	return Action{Op: Pass}
}

// NextFor assigns the next sequence number of the peer's stream and returns
// the action for it.  Streams are created on first use, independently
// seeded from (injector seed, peer), so the schedule for one peer is a pure
// function of that peer's own send count.
func (in *Injector) NextFor(peer uint64) Action {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.step(in.peerStream(peer))
}

// Hook is the send-path fault site of a peer transport.  Every transport
// embeds one and calls Apply at the top of Send; with no injector installed
// that costs one atomic load.
type Hook struct{ in atomic.Pointer[Injector] }

// Set installs in on the hook; nil removes it.
func (h *Hook) Set(in *Injector) { h.in.Store(in) }

// Apply draws the verdict for one frame to dst — from dst's own stream, so
// each peer's schedule is deterministic whatever the dispatcher
// interleaving — and carries out what is the same on every fabric.  It
// returns how many copies of m the transport must put on the fabric: 1
// normally, 2 for Duplicate (the retransmission goes immediately before the
// original), and 0 when the frame is finished: dropped (nil error, lost on
// the wire) or refused (the rule's error).  A finished frame's buffer is
// released but the struct is left intact, so the agent's retry policy can
// re-attach and resend it.
func (h *Hook) Apply(dst i2o.NodeID, m *i2o.Message) (copies int, err error) {
	in := h.in.Load()
	if in == nil {
		return 1, nil
	}
	switch act := in.NextFor(uint64(dst)); act.Op {
	case Drop:
		m.Release()
		return 0, nil
	case Delay:
		time.Sleep(act.Delay)
	case Error:
		m.Release()
		return 0, act.Err
	case Duplicate:
		return 2, nil
	}
	return 1, nil
}
