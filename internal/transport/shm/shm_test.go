package shm

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"xdaq/internal/device"
	"xdaq/internal/executive"
	"xdaq/internal/i2o"
	"xdaq/internal/pool"
	"xdaq/internal/pta"
	"xdaq/internal/queue"
	"xdaq/internal/transport/faults"
)

type shmNode struct {
	exec  *executive.Executive
	agent *pta.Agent
	tr    *Transport
}

func buildNode(t testing.TB, id i2o.NodeID, dir string, mode pta.Mode) *shmNode {
	t.Helper()
	e := executive.New(executive.Options{
		Name: "shm", Node: id,
		RequestTimeout: 3 * time.Second,
		Logf:           func(string, ...any) {},
	})
	tr, err := New(id, e.Allocator(), Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	agent, err := pta.New(e)
	if err != nil {
		t.Fatal(err)
	}
	if err := agent.Register(tr, mode); err != nil {
		t.Fatal(err)
	}
	n := &shmNode{exec: e, agent: agent, tr: tr}
	t.Cleanup(func() {
		agent.Close()
		e.Close()
	})
	return n
}

func connectPair(t testing.TB, mode pta.Mode) (*shmNode, *shmNode) {
	t.Helper()
	dir := t.TempDir()
	a := buildNode(t, 1, dir, mode)
	b := buildNode(t, 2, dir, mode)
	if err := a.tr.AddPeer(2); err != nil {
		t.Fatal(err)
	}
	if err := b.tr.AddPeer(1); err != nil {
		t.Fatal(err)
	}
	a.exec.SetRoute(2, PTName)
	b.exec.SetRoute(1, PTName)
	return a, b
}

func plugEcho(t testing.TB, n *shmNode) {
	t.Helper()
	d := device.New("echo", 0)
	d.Bind(1, func(ctx *device.Context, m *i2o.Message) error {
		return device.ReplyIfExpected(ctx, m, append([]byte(nil), m.Payload...))
	})
	if _, err := n.exec.Plug(d); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripOverMappedRings(t *testing.T) {
	for _, mode := range []pta.Mode{pta.Task, pta.Polling} {
		name := "task"
		if mode == pta.Polling {
			name = "polling"
		}
		t.Run(name, func(t *testing.T) {
			a, b := connectPair(t, mode)
			plugEcho(t, b)
			remote, err := a.exec.Discover(2, "echo", 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, size := range []int{0, 3, 1500, 100_000} {
				payload := bytes.Repeat([]byte{0x5a}, size)
				rep, err := a.exec.Request(&i2o.Message{
					Target: remote, Initiator: i2o.TIDExecutive,
					Function: i2o.FuncPrivate, Org: i2o.OrgXDAQ, XFunction: 1,
					Payload: payload,
				})
				if err != nil {
					t.Fatalf("size %d: %v", size, err)
				}
				if !bytes.Equal(rep.Payload, payload) {
					t.Fatalf("size %d: payload mismatch (got %d bytes)", size, len(rep.Payload))
				}
				rep.Recycle()
			}
		})
	}
}

// TestWrapAround pushes enough mixed-size frames through a ring to force
// many wrap-marker transitions and verifies every payload survives.
func TestWrapAround(t *testing.T) {
	a, b := connectPair(t, pta.Task)
	plugEcho(t, b)
	remote, err := a.exec.Discover(2, "echo", 0)
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{7, 4093, 64 * 1024, 1, 25_000, 3000}
	var wg sync.WaitGroup
	errc := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				size := sizes[(w+i)%len(sizes)]
				payload := bytes.Repeat([]byte{byte(i)}, size)
				rep, err := a.exec.Request(&i2o.Message{
					Target: remote, Initiator: i2o.TIDExecutive,
					Function: i2o.FuncPrivate, Org: i2o.OrgXDAQ, XFunction: 1,
					Payload: payload,
				})
				if err != nil {
					errc <- err
					return
				}
				ok := bytes.Equal(rep.Payload, payload)
				rep.Recycle()
				if !ok {
					errc <- errors.New("payload mismatch")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}

// TestRingFullIsTransient fills a tiny ring with no consumer and checks
// the error classification feeding the PTA retry policy.
func TestRingFullIsTransient(t *testing.T) {
	dir := t.TempDir()
	e := executive.New(executive.Options{Name: "solo", Node: 1, Logf: func(string, ...any) {}})
	defer e.Close()
	tr, err := New(1, e.Allocator(), Config{Dir: dir, RingBytes: 8192})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Stop()
	if err := tr.AddPeer(2); err != nil {
		t.Fatal(err)
	}
	var sawFull bool
	for i := 0; i < 100; i++ {
		err := tr.Send(2, &i2o.Message{
			Target: 10, Initiator: i2o.TIDExecutive,
			Function: i2o.FuncPrivate, Org: i2o.OrgXDAQ, XFunction: 1,
			Payload: bytes.Repeat([]byte{1}, 1024),
		})
		if err == nil {
			continue
		}
		if !errors.Is(err, queue.ErrFull) || !errors.Is(err, pta.ErrTransient) {
			t.Fatalf("want transient ring-full, got %v", err)
		}
		sawFull = true
		break
	}
	if !sawFull {
		t.Fatal("ring never filled")
	}
	// A frame that can never fit is a hard error, not a transient one.
	err = tr.Send(2, &i2o.Message{
		Target: 10, Initiator: i2o.TIDExecutive,
		Function: i2o.FuncPrivate, Org: i2o.OrgXDAQ, XFunction: 1,
		Payload: bytes.Repeat([]byte{1}, 6000),
	})
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
	if errors.Is(err, pta.ErrTransient) {
		t.Fatal("oversized frame must not be retryable")
	}
}

func TestSendToUnknownPeer(t *testing.T) {
	dir := t.TempDir()
	e := executive.New(executive.Options{Name: "solo", Node: 1, Logf: func(string, ...any) {}})
	defer e.Close()
	tr, err := New(1, e.Allocator(), Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Stop()
	err = tr.Send(9, &i2o.Message{Target: 1, Function: i2o.UtilNOP})
	if !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("want ErrUnknownPeer, got %v", err)
	}
}

// TestDuplicateFaultDeliversTwice checks the shared send-path fault hook
// is wired in: a Duplicate verdict puts the record on the ring twice, back
// to back, and a Drop verdict loses it with a nil error.
func TestDuplicateFaultDeliversTwice(t *testing.T) {
	dir := t.TempDir()
	alloc := pool.NewTable(0)
	a, err := New(1, alloc, Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Stop()
	b, err := New(2, alloc, Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()
	if err := a.AddPeer(2); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPeer(1); err != nil {
		t.Fatal(err)
	}
	// Frame 1 passes, frame 2 is duplicated, frame 3 dropped.
	a.SetFaults(faults.New(1).
		Add(faults.Rule{Op: faults.Duplicate, Nth: 2, Limit: 1}).
		Add(faults.Rule{Op: faults.Drop, Nth: 3, Limit: 1}))
	for i := byte(1); i <= 3; i++ {
		if err := a.Send(2, &i2o.Message{
			Target: 1, Initiator: i2o.TIDExecutive,
			Function: i2o.FuncPrivate, Org: i2o.OrgXDAQ, XFunction: 1,
			Payload: []byte{i, 0, 0, 0},
		}); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	var got []byte
	b.Poll(func(_ i2o.NodeID, m *i2o.Message) error {
		got = append(got, m.Payload[0])
		m.Release()
		return nil
	}, 16)
	if string(got) != "\x01\x02\x02" {
		t.Fatalf("delivered %v, want [1 2 2]", got)
	}
}
