package pci

import (
	"errors"
	"sync"
	"testing"
	"time"

	"xdaq/internal/device"
	"xdaq/internal/executive"
	"xdaq/internal/i2o"
	"xdaq/internal/pta"
)

func TestPointerPassing(t *testing.T) {
	s := NewSegment(4)
	a, err := s.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Attach(2)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Stop()
	defer b.Stop()

	sentMsg := &i2o.Message{Target: 5, Function: i2o.UtilNOP, Payload: []byte("shared")}
	if err := a.Send(2, sentMsg); err != nil {
		t.Fatal(err)
	}
	var got *i2o.Message
	var src i2o.NodeID
	n := b.Poll(func(s i2o.NodeID, m *i2o.Message) error {
		src, got = s, m
		return nil
	}, 10)
	if n != 1 || src != 1 {
		t.Fatalf("poll n=%d src=%v", n, src)
	}
	if got != sentMsg {
		t.Fatal("frame was copied; PCI segment must pass pointers")
	}
}

func TestBackpressureOnFullFIFO(t *testing.T) {
	s := NewSegment(2)
	a, _ := s.Attach(1)
	b, _ := s.Attach(2)
	defer a.Stop()
	defer b.Stop()
	for i := 0; i < 2; i++ {
		if err := a.Send(2, &i2o.Message{Target: 1, Function: i2o.UtilNOP}); err != nil {
			t.Fatal(err)
		}
	}
	blocked := make(chan error, 1)
	go func() {
		blocked <- a.Send(2, &i2o.Message{Target: 1, Function: i2o.UtilNOP})
	}()
	select {
	case err := <-blocked:
		t.Fatalf("send to full FIFO returned %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	b.Poll(func(i2o.NodeID, *i2o.Message) error { return nil }, 1)
	if err := <-blocked; err != nil {
		t.Fatal(err)
	}
	// The FIFO holds exactly its depth again: the second frame and the one
	// that was blocked.
	if n := b.Poll(func(i2o.NodeID, *i2o.Message) error { return nil }, 10); n != 2 {
		t.Fatalf("polled %d frames after unblocking, want 2", n)
	}
}

func TestTaskMode(t *testing.T) {
	s := NewSegment(0)
	a, _ := s.Attach(1)
	b, _ := s.Attach(2)
	defer a.Stop()
	defer b.Stop()
	got := make(chan *i2o.Message, 1)
	if err := b.Start(func(_ i2o.NodeID, m *i2o.Message) error {
		got <- m
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := b.Start(func(i2o.NodeID, *i2o.Message) error { return nil }); err == nil {
		t.Fatal("double start")
	}
	if err := a.Send(2, &i2o.Message{Target: 3, Function: i2o.UtilNOP}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(time.Second):
		t.Fatal("task mode never delivered")
	}
}

func TestStopUnblocksSenders(t *testing.T) {
	s := NewSegment(1)
	a, _ := s.Attach(1)
	b, _ := s.Attach(2)
	defer a.Stop()
	if err := a.Send(2, &i2o.Message{Target: 1, Function: i2o.UtilNOP}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := a.Send(2, &i2o.Message{Target: 1, Function: i2o.UtilNOP}); !errors.Is(err, ErrClosed) {
			t.Errorf("blocked send: %v", err)
		}
	}()
	time.Sleep(20 * time.Millisecond)
	if err := b.Stop(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("sender stuck")
	}
	if err := a.Send(2, &i2o.Message{Target: 1, Function: i2o.UtilNOP}); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("send after detach: %v", err)
	}
}

func TestDuplicateAttach(t *testing.T) {
	s := NewSegment(0)
	if _, err := s.Attach(1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Attach(1); !errors.Is(err, ErrDuplicateNode) {
		t.Fatalf("dup: %v", err)
	}
}

func TestFullExecutiveStackOverSegment(t *testing.T) {
	s := NewSegment(8)
	mk := func(id i2o.NodeID) (*executive.Executive, *pta.Agent) {
		e := executive.New(executive.Options{
			Name: "pci", Node: id,
			RequestTimeout: 2 * time.Second,
			Logf:           func(string, ...any) {},
		})
		ep, err := s.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		agent, err := pta.New(e)
		if err != nil {
			t.Fatal(err)
		}
		// Host side polls (the executive scans the hardware FIFO), exactly
		// the polling-mode operation of §4.
		if err := agent.Register(ep, pta.Polling); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			agent.Close()
			e.Close()
		})
		return e, agent
	}
	host, _ := mk(1)
	iop, _ := mk(2)
	host.SetRoute(2, PTName)
	iop.SetRoute(1, PTName)

	d := device.New("block-storage", 0)
	d.Bind(1, func(ctx *device.Context, m *i2o.Message) error {
		return device.ReplyIfExpected(ctx, m, []byte("stored"))
	})
	if _, err := iop.Plug(d); err != nil {
		t.Fatal(err)
	}
	remote, err := host.Discover(2, "block-storage", 0)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := host.Request(&i2o.Message{
		Target: remote, Initiator: i2o.TIDExecutive,
		Function: i2o.FuncPrivate, Org: i2o.OrgXDAQ, XFunction: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Release()
	if string(rep.Payload) != "stored" {
		t.Fatalf("payload %q", rep.Payload)
	}
}
