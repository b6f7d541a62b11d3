package queue

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"xdaq/internal/i2o"
)

func msg(target i2o.TID, prio i2o.Priority, seq uint32) *i2o.Message {
	return &i2o.Message{
		Target:           target,
		Priority:         prio,
		Function:         i2o.FuncPrivate,
		InitiatorContext: seq,
	}
}

// pop takes the next frame the way one dispatch worker does: it checks the
// frame out with PopExclusiveBatch and hands its device straight back with
// DeviceDone.  It returns false instead of blocking when nothing is queued.
func pop(s *Sched) (*i2o.Message, bool) {
	if s.Len() == 0 {
		return nil, false
	}
	var buf [1]*i2o.Message
	var epoch uint64
	if n, _ := s.PopExclusiveBatch(buf[:], &epoch); n == 0 {
		return nil, false
	}
	s.DeviceDone(buf[0].Target)
	return buf[0], true
}

func TestSchedFIFOWithinDevice(t *testing.T) {
	s := NewSched(0)
	for i := uint32(0); i < 100; i++ {
		if err := s.Push(msg(5, i2o.PriorityNormal, i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint32(0); i < 100; i++ {
		m, ok := pop(s)
		if !ok || m.InitiatorContext != i {
			t.Fatalf("pop %d: got %v ok=%v", i, m, ok)
		}
	}
}

func TestSchedPriorityOrder(t *testing.T) {
	s := NewSched(0)
	// Push in reverse priority order; pops must come back urgent-first.
	for p := i2o.Priority(i2o.NumPriorities - 1); ; p-- {
		if err := s.Push(msg(1, p, uint32(p))); err != nil {
			t.Fatal(err)
		}
		if p == 0 {
			break
		}
	}
	for want := i2o.Priority(0); want < i2o.NumPriorities; want++ {
		m, ok := pop(s)
		if !ok || m.Priority != want {
			t.Fatalf("want priority %d, got %v", want, m)
		}
	}
}

func TestSchedRoundRobinAcrossDevices(t *testing.T) {
	s := NewSched(0)
	// Three devices, three frames each, same priority.
	for seq := uint32(0); seq < 3; seq++ {
		for _, dev := range []i2o.TID{10, 20, 30} {
			if err := s.Push(msg(dev, i2o.PriorityNormal, seq)); err != nil {
				t.Fatal(err)
			}
		}
	}
	var order []i2o.TID
	for {
		m, ok := pop(s)
		if !ok {
			break
		}
		order = append(order, m.Target)
	}
	want := []i2o.TID{10, 20, 30, 10, 20, 30, 10, 20, 30}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("round robin order %v, want %v", order, want)
		}
	}
}

func TestSchedRoundRobinNoStarvation(t *testing.T) {
	s := NewSched(0)
	// Device 1 has a deep backlog; device 2 arrives later with one frame.
	for i := uint32(0); i < 10; i++ {
		if err := s.Push(msg(1, 0, i)); err != nil {
			t.Fatal(err)
		}
	}
	m, _ := pop(s) // serve one frame of device 1
	if m.Target != 1 {
		t.Fatal("first pop")
	}
	if err := s.Push(msg(2, 0, 100)); err != nil {
		t.Fatal(err)
	}
	// Device 2 must be served within one full rotation (i.e. among the next
	// two pops), and service then alternates — the backlog cannot starve it.
	first, _ := pop(s)
	second, _ := pop(s)
	if first.Target != 2 && second.Target != 2 {
		t.Fatalf("late-arriving device starved: popped %v then %v", first, second)
	}
}

func TestSchedBlockingPop(t *testing.T) {
	s := NewSched(0)
	got := make(chan *i2o.Message, 1)
	go func() {
		buf := make([]*i2o.Message, 1)
		var epoch uint64
		s.PopExclusiveBatch(buf, &epoch)
		got <- buf[0]
	}()
	time.Sleep(10 * time.Millisecond)
	if err := s.Push(msg(1, 0, 42)); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m.InitiatorContext != 42 {
			t.Fatalf("got %v", m)
		}
	case <-time.After(time.Second):
		t.Fatal("PopExclusiveBatch did not wake")
	}
}

func TestSchedCloseDrains(t *testing.T) {
	s := NewSched(0)
	if err := s.Push(msg(1, 0, 1)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := s.Push(msg(1, 0, 2)); !errors.Is(err, ErrClosed) {
		t.Fatalf("push after close: %v", err)
	}
	buf := make([]*i2o.Message, 2)
	var epoch uint64
	if n, ok := s.PopExclusiveBatch(buf, &epoch); !ok || n != 1 || buf[0].InitiatorContext != 1 {
		t.Fatalf("drain pop: n=%d ok=%v %v", n, ok, buf[0])
	}
	s.DeviceDone(1)
	if n, ok := s.PopExclusiveBatch(buf, &epoch); ok || n != 0 {
		t.Fatalf("pop after drain: n=%d ok=%v", n, ok)
	}
}

func TestSchedCapacity(t *testing.T) {
	s := NewSched(2)
	if err := s.Push(msg(1, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Push(msg(1, 0, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Push(msg(1, 0, 3)); !errors.Is(err, ErrFull) {
		t.Fatalf("over-capacity push: %v", err)
	}
	pop(s)
	if err := s.Push(msg(1, 0, 3)); err != nil {
		t.Fatalf("push after pop: %v", err)
	}
}

func TestSchedRejectsBadPriority(t *testing.T) {
	s := NewSched(0)
	if err := s.Push(msg(1, i2o.NumPriorities, 0)); !errors.Is(err, i2o.ErrBadPriority) {
		t.Fatalf("bad priority: %v", err)
	}
}

func TestSchedDrain(t *testing.T) {
	s := NewSched(0)
	for i := uint32(0); i < 5; i++ {
		if err := s.Push(msg(i2o.TID(i+1), i2o.Priority(i%3), i)); err != nil {
			t.Fatal(err)
		}
	}
	out := s.Drain()
	if len(out) != 5 || s.Len() != 0 {
		t.Fatalf("drain returned %d, len %d", len(out), s.Len())
	}
}

func TestSchedLevelLen(t *testing.T) {
	s := NewSched(0)
	for i := 0; i < 3; i++ {
		if err := s.Push(msg(1, i2o.PriorityLow, uint32(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Push(msg(2, i2o.PriorityUrgent, 9)); err != nil {
		t.Fatal(err)
	}
	if s.LevelLen(i2o.PriorityLow) != 3 || s.LevelLen(i2o.PriorityUrgent) != 1 || s.LevelLen(i2o.PriorityBulk) != 0 {
		t.Fatalf("level lens: low=%d urgent=%d", s.LevelLen(i2o.PriorityLow), s.LevelLen(i2o.PriorityUrgent))
	}
}

func TestSchedConcurrentProducers(t *testing.T) {
	s := NewSched(0)
	const producers, per = 8, 200
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := s.Push(msg(i2o.TID(p+1), i2o.Priority(i%i2o.NumPriorities), uint32(i))); err != nil {
					t.Errorf("push: %v", err)
					return
				}
			}
		}(p)
	}
	done := make(chan int)
	go func() {
		n := 0
		perDev := make(map[i2o.TID]uint32)
		buf := make([]*i2o.Message, 1)
		var epoch uint64
		for {
			k, ok := s.PopExclusiveBatch(buf, &epoch)
			if !ok {
				done <- n
				return
			}
			if k == 0 {
				continue
			}
			m := buf[0]
			s.DeviceDone(m.Target)
			// Per (device, priority) order is FIFO; with priorities mixed we
			// only check sequence monotonicity per device per priority via
			// context encoding (i%7 == priority so contexts at one priority
			// arrive in increasing order).
			key := m.Target*100 + i2o.TID(m.Priority)
			if last, ok := perDev[key]; ok && m.InitiatorContext <= last {
				t.Errorf("device %v prio %d: context %d after %d", m.Target, m.Priority, m.InitiatorContext, last)
			}
			perDev[key] = m.InitiatorContext
			n++
		}
	}()
	wg.Wait()
	s.Close()
	if n := <-done; n != producers*per {
		t.Fatalf("consumed %d, want %d", n, producers*per)
	}
}

// model reproduces the documented scheduling discipline in plain Go so that
// quick can compare implementation and specification on random workloads.
type modelSched struct {
	levels [i2o.NumPriorities]struct {
		ring []i2o.TID
		q    map[i2o.TID][]*i2o.Message
	}
}

func (m *modelSched) push(f *i2o.Message) {
	l := &m.levels[f.Priority]
	if l.q == nil {
		l.q = map[i2o.TID][]*i2o.Message{}
	}
	if len(l.q[f.Target]) == 0 {
		l.ring = append(l.ring, f.Target)
	}
	l.q[f.Target] = append(l.q[f.Target], f)
}

func (m *modelSched) pop() *i2o.Message {
	for p := range m.levels {
		l := &m.levels[p]
		if len(l.ring) == 0 {
			continue
		}
		dev := l.ring[0]
		f := l.q[dev][0]
		l.q[dev] = l.q[dev][1:]
		l.ring = l.ring[1:]
		if len(l.q[dev]) > 0 {
			l.ring = append(l.ring, dev)
		}
		return f
	}
	return nil
}

func TestQuickSchedMatchesModel(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := NewSched(0)
		m := &modelSched{}
		seq := uint32(0)
		for op := 0; op < 200; op++ {
			if r.Intn(3) > 0 || s.Len() == 0 { // bias toward pushes
				f := msg(i2o.TID(1+r.Intn(4)), i2o.Priority(r.Intn(i2o.NumPriorities)), seq)
				seq++
				if s.Push(f) != nil {
					return false
				}
				m.push(f)
			} else {
				got, ok := pop(s)
				want := m.pop()
				if !ok || got != want {
					t.Logf("seed %d op %d: got %v want %v", seed, op, got, want)
					return false
				}
			}
		}
		for {
			got, ok := pop(s)
			want := m.pop()
			if !ok {
				return want == nil
			}
			if got != want {
				return false
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDequeGrowth(t *testing.T) {
	var d deque
	// Interleave pushes and pops so head is nonzero when growth happens.
	for i := uint32(0); i < 3; i++ {
		d.pushBack(item{m: msg(1, 0, i)})
	}
	d.popFront()
	d.popFront()
	for i := uint32(3); i < 50; i++ {
		d.pushBack(item{m: msg(1, 0, i)})
	}
	for want := uint32(2); want < 50; want++ {
		it := d.popFront()
		if it.m == nil || it.m.InitiatorContext != want {
			t.Fatalf("popFront = %v, want seq %d", it.m, want)
		}
	}
	if d.len() != 0 || d.popFront().m != nil {
		t.Fatal("deque not empty at end")
	}
}
