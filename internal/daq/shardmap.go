package daq

import (
	"encoding/binary"
	"fmt"

	"xdaq/internal/i2o"
)

// NoOwner marks a shard slot with no builder unit assigned (the map
// before any registration, or after the last builder left).
const NoOwner = ^uint32(0)

// ShardMap is the consistent event-range→builder-unit assignment owned by
// the EVM.  The event space is cut into fixed-size blocks of Range
// events; block b hashes to slot b mod len(Owners), and the slot's owner
// builds every event of the block.  Like membership epochs, every
// mutation bumps Version, and the version rides every data-path record so
// stale holders are fenced instead of misrouting (see doc/architecture.md,
// "Hierarchical event building").
//
// The structure is deliberately tiny: a handful of slots, not a hash ring
// with thousands of virtual nodes.  Rebalancing quality only needs slots
// to comfortably exceed the builder count.
type ShardMap struct {
	Version uint64
	Range   uint32   // events per block (>= 1)
	Owners  []uint32 // slot -> builder unit id, NoOwner when unassigned
}

// NewShardMap creates an empty map with the given slot count and block
// size.  Arguments are clamped to at least 1.
func NewShardMap(slots int, rangeSize uint32) *ShardMap {
	if slots < 1 {
		slots = 1
	}
	if rangeSize < 1 {
		rangeSize = 1
	}
	owners := make([]uint32, slots)
	for i := range owners {
		owners[i] = NoOwner
	}
	return &ShardMap{Range: rangeSize, Owners: owners}
}

// Block returns the block ordinal of an event (events are 1-based).
func (s *ShardMap) Block(event uint64) uint64 {
	return (event - 1) / uint64(s.Range)
}

// Slot returns the slot a block hashes to.
func (s *ShardMap) Slot(block uint64) int {
	return int(block % uint64(len(s.Owners)))
}

// Owner returns the builder unit that owns an event, or (NoOwner, false)
// when its slot is unassigned.
func (s *ShardMap) Owner(event uint64) (uint32, bool) {
	bu := s.Owners[s.Slot(s.Block(event))]
	return bu, bu != NoOwner
}

// load returns slot counts per owner.
func (s *ShardMap) load() map[uint32]int {
	l := map[uint32]int{}
	for _, o := range s.Owners {
		if o != NoOwner {
			l[o]++
		}
	}
	return l
}

// Add admits a builder unit, stealing its fair share of slots — and only
// its fair share: every reassigned slot goes to the newcomer, so at most
// ceil(slots/members) slots move.  Deterministic: victims are the most
// loaded owners (ties to the smaller id), and the stolen slot is the
// victim's highest-index one.  Adding a present member is a no-op (no
// version bump).  Returns whether the map changed.
func (s *ShardMap) Add(bu uint32) bool {
	if bu == NoOwner {
		return false
	}
	load := s.load()
	if _, ok := load[bu]; ok {
		return false
	}
	members := len(load) + 1
	target := (len(s.Owners) + members - 1) / members // ceil share
	got := 0
	// Unassigned slots first: they are free to take.
	for i, o := range s.Owners {
		if got >= target {
			break
		}
		if o == NoOwner {
			s.Owners[i] = bu
			got++
		}
	}
	for got < target {
		victim, max := NoOwner, 1
		for o, n := range load {
			if n > max || (n == max && victim != NoOwner && o < victim) {
				victim, max = o, n
			}
		}
		if victim == NoOwner {
			break // nobody has a spare slot to give
		}
		for i := len(s.Owners) - 1; i >= 0; i-- {
			if s.Owners[i] == victim {
				s.Owners[i] = bu
				load[victim]--
				got++
				break
			}
		}
	}
	s.Version++
	return true
}

// Remove evicts a builder unit, reassigning only its slots — the minimal
// movement property the unit tests pin down.  Orphaned slots go to the
// least-loaded survivors (ties to the smaller id), keeping the map
// balanced; with no survivor they become NoOwner.  Removing an absent
// member is a no-op.  Returns whether the map changed.
func (s *ShardMap) Remove(bu uint32) bool {
	load := s.load()
	if _, ok := load[bu]; !ok {
		return false
	}
	delete(load, bu)
	for i, o := range s.Owners {
		if o != bu {
			continue
		}
		heir, min := NoOwner, int(^uint(0)>>1)
		for o, n := range load {
			if n < min || (n == min && o < heir) {
				heir, min = o, n
			}
		}
		s.Owners[i] = heir
		if heir != NoOwner {
			load[heir]++
		}
	}
	s.Version++
	return true
}

// EncodeShardMap renders the map as a frame payload: version, range,
// slot count, then one owner per slot.
func EncodeShardMap(s *ShardMap) []byte {
	b := make([]byte, 16+4*len(s.Owners))
	binary.LittleEndian.PutUint64(b, s.Version)
	binary.LittleEndian.PutUint32(b[8:], s.Range)
	binary.LittleEndian.PutUint32(b[12:], uint32(len(s.Owners)))
	for i, o := range s.Owners {
		binary.LittleEndian.PutUint32(b[16+4*i:], o)
	}
	return b
}

// DecodeShardMap parses a payload written by EncodeShardMap.
func DecodeShardMap(p []byte) (*ShardMap, error) {
	if len(p) < 16 {
		return nil, fmt.Errorf("%w: shard map of %d bytes", i2o.ErrTruncated, len(p))
	}
	s := &ShardMap{
		Version: binary.LittleEndian.Uint64(p),
		Range:   binary.LittleEndian.Uint32(p[8:]),
	}
	slots := binary.LittleEndian.Uint32(p[12:])
	if s.Range == 0 || slots == 0 || slots > 1<<16 {
		return nil, fmt.Errorf("daq: shard map with %d slots, range %d", slots, s.Range)
	}
	if len(p) != 16+4*int(slots) {
		return nil, fmt.Errorf("%w: shard map of %d bytes for %d slots", i2o.ErrTruncated, len(p), slots)
	}
	s.Owners = make([]uint32, slots)
	for i := range s.Owners {
		s.Owners[i] = binary.LittleEndian.Uint32(p[16+4*i:])
	}
	return s, nil
}
