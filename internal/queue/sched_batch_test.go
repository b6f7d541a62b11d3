package queue

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xdaq/internal/i2o"
)

// reply builds a correlated reply frame (non-exclusive under the parallel
// dispatch discipline).
func reply(target i2o.TID, prio i2o.Priority, seq uint32) *i2o.Message {
	m := msg(target, prio, seq)
	m.Flags = i2o.FlagReply
	return m
}

func TestExclusiveBatchChecksOutDevice(t *testing.T) {
	s := NewSched(0)
	for i := uint32(0); i < 3; i++ {
		if err := s.Push(msg(9, i2o.PriorityNormal, i)); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]*i2o.Message, 8)
	var ep uint64
	n, ok := s.PopExclusiveBatch(buf, &ep)
	if !ok || n != 1 {
		// Only the head frame is eligible: the device is checked out by the
		// first pop, so its remaining frames stay queued.
		t.Fatalf("first batch: n=%d ok=%v, want 1 frame", n, ok)
	}
	if buf[0].InitiatorContext != 0 {
		t.Fatalf("popped %v, want seq 0", buf[0])
	}
	s.DeviceDone(9)
	n, _ = s.PopExclusiveBatch(buf, &ep)
	if n != 1 || buf[0].InitiatorContext != 1 {
		t.Fatalf("after DeviceDone: n=%d frame=%v, want seq 1", n, buf[0])
	}
}

func TestExclusiveRepliesBypassBusyDevice(t *testing.T) {
	s := NewSched(0)
	if err := s.Push(msg(5, i2o.PriorityNormal, 1)); err != nil {
		t.Fatal(err)
	}
	buf := make([]*i2o.Message, 4)
	var ep uint64
	if n, _ := s.PopExclusiveBatch(buf, &ep); n != 1 {
		t.Fatalf("checkout pop: %d", n)
	}
	// Device 5 is now checked out; a correlated reply addressed to it must
	// still flow (replies are matched to parked waiters, never upcalled).
	if err := s.Push(reply(5, i2o.PriorityNormal, 77)); err != nil {
		t.Fatal(err)
	}
	n, ok := s.PopExclusiveBatch(buf, &ep)
	if !ok || n != 1 || buf[0].InitiatorContext != 77 {
		t.Fatalf("reply did not bypass busy device: n=%d %v", n, buf[0])
	}
}

func TestExclusiveSlowDeviceDoesNotBlockOthers(t *testing.T) {
	s := NewSched(0)
	// Device 1's frame is popped and held (its consumer is "slow"); frames
	// for devices 2..5 must still be poppable by another consumer.
	if err := s.Push(msg(1, i2o.PriorityNormal, 0)); err != nil {
		t.Fatal(err)
	}
	buf := make([]*i2o.Message, 1)
	var ep uint64
	if n, _ := s.PopExclusiveBatch(buf, &ep); n != 1 {
		t.Fatal("checkout pop")
	}
	for d := i2o.TID(2); d <= 5; d++ {
		if err := s.Push(msg(d, i2o.PriorityNormal, uint32(d))); err != nil {
			t.Fatal(err)
		}
		if err := s.Push(msg(1, i2o.PriorityNormal, uint32(100+d))); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[i2o.TID]bool{}
	wide := make([]*i2o.Message, 16)
	n, ok := s.PopExclusiveBatch(wide, &ep)
	if !ok {
		t.Fatal("pop blocked by busy device")
	}
	for i := 0; i < n; i++ {
		if wide[i].Target == 1 {
			t.Fatalf("popped a frame for the checked-out device: %v", wide[i])
		}
		seen[wide[i].Target] = true
	}
	if len(seen) != 4 {
		t.Fatalf("got devices %v, want 2..5", seen)
	}
}

func TestExclusiveBatchFIFOUnderConcurrentConsumers(t *testing.T) {
	s := NewSched(0)
	const devices, perDevice, consumers = 8, 200, 4

	var mu sync.Mutex
	lastSeq := make(map[i2o.TID]uint32)
	inFlight := make(map[i2o.TID]*atomic.Int32)
	for d := 1; d <= devices; d++ {
		inFlight[i2o.TID(d)] = &atomic.Int32{}
	}
	var violations atomic.Int32

	var wg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]*i2o.Message, 4)
			var ep uint64
			for {
				n, ok := s.PopExclusiveBatch(buf, &ep)
				if !ok {
					return
				}
				for i := 0; i < n; i++ {
					m := buf[i]
					if g := inFlight[m.Target]; g.Add(1) != 1 {
						violations.Add(1)
					}
					mu.Lock()
					if last, seen := lastSeq[m.Target]; seen && m.InitiatorContext != last+1 {
						violations.Add(1)
					}
					lastSeq[m.Target] = m.InitiatorContext
					mu.Unlock()
					if m.InitiatorContext%37 == 0 {
						time.Sleep(time.Microsecond) // jitter the interleaving
					}
					inFlight[m.Target].Add(-1)
					s.DeviceDone(m.Target)
				}
			}
		}()
	}

	var pwg sync.WaitGroup
	for d := 1; d <= devices; d++ {
		pwg.Add(1)
		go func(d i2o.TID) {
			defer pwg.Done()
			for i := uint32(1); i <= perDevice; i++ {
				if err := s.Push(msg(d, i2o.PriorityNormal, i)); err != nil {
					t.Errorf("push: %v", err)
					return
				}
			}
		}(i2o.TID(d))
	}
	pwg.Wait()
	s.Close()
	wg.Wait()

	if v := violations.Load(); v != 0 {
		t.Fatalf("%d FIFO/serialization violations", v)
	}
	for d := 1; d <= devices; d++ {
		if lastSeq[i2o.TID(d)] != perDevice {
			t.Fatalf("device %d: consumed up to %d, want %d", d, lastSeq[i2o.TID(d)], perDevice)
		}
	}
}

func TestExclusiveBatchInterrupt(t *testing.T) {
	s := NewSched(0)
	bounced := make(chan bool, 1)
	go func() {
		buf := make([]*i2o.Message, 1)
		var ep uint64
		n, ok := s.PopExclusiveBatch(buf, &ep)
		bounced <- ok && n == 0
	}()
	time.Sleep(10 * time.Millisecond)
	s.Interrupt()
	select {
	case got := <-bounced:
		if !got {
			t.Fatal("Interrupt did not surface as (0, true)")
		}
	case <-time.After(time.Second):
		t.Fatal("Interrupt did not wake the consumer")
	}
}

func TestExclusiveBatchDrainsAfterClose(t *testing.T) {
	s := NewSched(0)
	for i := uint32(0); i < 5; i++ {
		if err := s.Push(msg(i2o.TID(1+i), i2o.PriorityNormal, i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	buf := make([]*i2o.Message, 2)
	var ep uint64
	total := 0
	for {
		n, ok := s.PopExclusiveBatch(buf, &ep)
		if !ok {
			break
		}
		for i := 0; i < n; i++ {
			s.DeviceDone(buf[i].Target)
		}
		total += n
	}
	if total != 5 {
		t.Fatalf("drained %d frames after close, want 5", total)
	}
}
