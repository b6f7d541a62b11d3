package daq

import (
	"reflect"
	"testing"
)

func TestShardMapDeterministicAssignment(t *testing.T) {
	build := func() *ShardMap {
		s := NewShardMap(16, 4)
		s.Add(3)
		s.Add(1)
		s.Add(7)
		s.Remove(1)
		s.Add(5)
		return s
	}
	a, b := build(), build()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same operations, different maps:\n%v\n%v", a, b)
	}
	if a.Version != 5 {
		t.Fatalf("version %d after 5 mutations", a.Version)
	}
	// Owner is a pure function of the map.
	for ev := uint64(1); ev <= 256; ev++ {
		ao, aok := a.Owner(ev)
		bo, bok := b.Owner(ev)
		if ao != bo || aok != bok {
			t.Fatalf("event %d: owners differ (%d vs %d)", ev, ao, bo)
		}
	}
}

func TestShardMapAddTakesOnlyItsShare(t *testing.T) {
	s := NewShardMap(16, 1)
	s.Add(0)
	for _, bu := range []uint32{1, 2, 3} {
		before := append([]uint32(nil), s.Owners...)
		if !s.Add(bu) {
			t.Fatalf("add %d: no change", bu)
		}
		moved := 0
		for i := range s.Owners {
			if s.Owners[i] != before[i] {
				if s.Owners[i] != bu {
					t.Fatalf("add %d reassigned slot %d to %d (only the newcomer may gain slots)",
						bu, i, s.Owners[i])
				}
				moved++
			}
		}
		load := s.load()
		members := len(load)
		ceil := (len(s.Owners) + members - 1) / members
		if moved == 0 || moved > ceil {
			t.Fatalf("add %d moved %d slots, want 1..%d", bu, moved, ceil)
		}
		// The result stays balanced: no owner more than one slot above
		// another... except the ceil rounding.
		min, max := 1<<30, 0
		for _, n := range load {
			if n < min {
				min = n
			}
			if n > max {
				max = n
			}
		}
		if max-min > 1 {
			t.Fatalf("after add %d: unbalanced loads %v", bu, load)
		}
	}
}

func TestShardMapRemoveMinimalMovement(t *testing.T) {
	s := NewShardMap(16, 1)
	for bu := uint32(0); bu < 4; bu++ {
		s.Add(bu)
	}
	before := append([]uint32(nil), s.Owners...)
	if !s.Remove(2) {
		t.Fatal("remove 2: no change")
	}
	for i := range s.Owners {
		if before[i] != 2 && s.Owners[i] != before[i] {
			t.Fatalf("slot %d moved from %d to %d, but only builder 2's slots may move",
				i, before[i], s.Owners[i])
		}
		if before[i] == 2 && s.Owners[i] == 2 {
			t.Fatalf("slot %d still owned by removed builder 2", i)
		}
	}
	load := s.load()
	min, max := 1<<30, 0
	for _, n := range load {
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if max-min > 1 {
		t.Fatalf("after remove: unbalanced loads %v", load)
	}
	if s.Remove(2) {
		t.Fatal("removing an absent member changed the map")
	}
}

func TestShardMapRemoveLastOwnerOrphansSlots(t *testing.T) {
	s := NewShardMap(4, 1)
	s.Add(9)
	s.Remove(9)
	for i, o := range s.Owners {
		if o != NoOwner {
			t.Fatalf("slot %d still owned by %d after last member left", i, o)
		}
	}
	if _, ok := s.Owner(1); ok {
		t.Fatal("ownerless map claims an owner")
	}
}

func TestShardMapReAddIsNoOp(t *testing.T) {
	s := NewShardMap(8, 2)
	s.Add(1)
	v := s.Version
	if s.Add(1) {
		t.Fatal("re-adding a member changed the map")
	}
	if s.Version != v {
		t.Fatal("re-add bumped the version")
	}
}

func TestShardMapBlockGeometry(t *testing.T) {
	s := NewShardMap(4, 8)
	if s.Block(1) != 0 || s.Block(8) != 0 || s.Block(9) != 1 {
		t.Fatal("block boundaries")
	}
	if s.Block(24) != 2 || s.Block(25) != 3 {
		t.Fatal("block first events")
	}
	if s.Slot(5) != 1 || s.Slot(4) != 0 {
		t.Fatal("slot hashing")
	}
}

func TestShardMapEncodeDecode(t *testing.T) {
	s := NewShardMap(16, 4)
	s.Add(3)
	s.Add(11)
	s.Remove(3)
	got, err := DecodeShardMap(EncodeShardMap(s))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("round trip:\n%v\n%v", s, got)
	}
	if _, err := DecodeShardMap(EncodeShardMap(s)[:10]); err == nil {
		t.Fatal("truncated map decoded")
	}
}
