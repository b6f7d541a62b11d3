package gm

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"
)

func openPair(t *testing.T) (*NIC, *NIC) {
	t.Helper()
	f := NewFabric()
	a, err := f.Open(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.Open(2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	t.Cleanup(b.Close)
	return a, b
}

func provide(t *testing.T, n *NIC, count, size int) {
	t.Helper()
	for i := 0; i < count; i++ {
		if err := n.Provide(make([]byte, size), nil); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSendReceive(t *testing.T) {
	a, b := openPair(t)
	provide(t, b, 1, 64)
	if err := a.Send(2, []byte("hello myrinet")); err != nil {
		t.Fatal(err)
	}
	r, ok := b.Receive()
	if !ok {
		t.Fatal("receive")
	}
	if r.Src != 1 || string(r.Buf[:r.N]) != "hello myrinet" {
		t.Fatalf("recv %+v", r)
	}
}

func TestSendGatherConcatenates(t *testing.T) {
	a, b := openPair(t)
	provide(t, b, 1, 64)
	if err := a.SendGather(2, []byte("head|"), []byte("body|"), []byte("pad")); err != nil {
		t.Fatal(err)
	}
	r, _ := b.Receive()
	if string(r.Buf[:r.N]) != "head|body|pad" {
		t.Fatalf("gather %q", r.Buf[:r.N])
	}
}

func TestReceiveToken(t *testing.T) {
	a, b := openPair(t)
	type tok struct{ id int }
	want := &tok{7}
	if err := b.Provide(make([]byte, 16), want); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(2, []byte("x")); err != nil {
		t.Fatal(err)
	}
	r, _ := b.Receive()
	if r.Token != want {
		t.Fatalf("token %v", r.Token)
	}
}

func TestProvideOrderIsFIFO(t *testing.T) {
	a, b := openPair(t)
	if err := b.Provide(make([]byte, 16), "first"); err != nil {
		t.Fatal(err)
	}
	if err := b.Provide(make([]byte, 16), "second"); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(2, []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(2, []byte("2")); err != nil {
		t.Fatal(err)
	}
	r1, _ := b.Receive()
	r2, _ := b.Receive()
	if r1.Token != "first" || r2.Token != "second" {
		t.Fatalf("tokens %v %v", r1.Token, r2.Token)
	}
}

func TestTruncationToProvidedBuffer(t *testing.T) {
	a, b := openPair(t)
	provide(t, b, 1, 4)
	if err := a.Send(2, []byte("longer than four")); err != nil {
		t.Fatal(err)
	}
	r, _ := b.Receive()
	if r.N != 4 || string(r.Buf[:r.N]) != "long" {
		t.Fatalf("truncated recv %q n=%d", r.Buf[:r.N], r.N)
	}
}

func TestOversizeSend(t *testing.T) {
	a, _ := openPair(t)
	if err := a.Send(2, make([]byte, MTU+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize: %v", err)
	}
}

func TestUnknownPortDrops(t *testing.T) {
	a, b := openPair(t)
	provide(t, b, 1, 16)
	if err := a.Send(99, []byte("void")); err != nil {
		t.Fatal(err) // posting succeeds; the LANai drops it
	}
	// The LANai serves its send ring in order: the next frame arrives in
	// b's only buffer, so the void one was dropped, not delivered.
	if err := a.Send(2, []byte("real")); err != nil {
		t.Fatal(err)
	}
	r, ok := b.Receive()
	if !ok || string(r.Buf[:r.N]) != "real" {
		t.Fatalf("after a drop: got %q ok=%v, want \"real\"", r.Buf[:r.N], ok)
	}
}

func TestDuplicatePort(t *testing.T) {
	f := NewFabric()
	n, err := f.Open(5)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if _, err := f.Open(5); !errors.Is(err, ErrDuplicatePort) {
		t.Fatalf("dup: %v", err)
	}
}

func TestCloseSemantics(t *testing.T) {
	f := NewFabric()
	n, err := f.Open(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Provide(make([]byte, 8), "t"); err != nil {
		t.Fatal(err)
	}
	n.Close()
	n.Close() // idempotent
	if err := n.Send(1, []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close: %v", err)
	}
	if err := n.Provide(make([]byte, 8), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("provide after close: %v", err)
	}
	if _, ok := n.Receive(); ok {
		t.Fatal("receive after close")
	}
	_, tok, ok := n.ReclaimProvided()
	if !ok || tok != "t" {
		t.Fatalf("reclaim %v %v", tok, ok)
	}
	if _, _, ok := n.ReclaimProvided(); ok {
		t.Fatal("second reclaim")
	}
}

func TestReclaimBeforeCloseRefuses(t *testing.T) {
	f := NewFabric()
	n, _ := f.Open(1)
	defer n.Close()
	if err := n.Provide(make([]byte, 8), nil); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := n.ReclaimProvided(); ok {
		t.Fatal("reclaim on open NIC")
	}
}

func TestProvideRingBound(t *testing.T) {
	f := NewFabric()
	n, _ := f.Open(1)
	defer n.Close()
	for i := 0; i < ProvideDepth; i++ {
		if err := n.Provide(make([]byte, 1), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Provide(make([]byte, 1), nil); !errors.Is(err, ErrNoBuffers) {
		t.Fatalf("over-provide: %v", err)
	}
}

func TestBlockedSenderUnblocksOnClose(t *testing.T) {
	f := NewFabric()
	a, _ := f.Open(1)
	b, _ := f.Open(2)
	defer b.Close()
	// No provided buffers at b: a's LANai blocks, then a's send ring fills.
	errs := make(chan error, SendRingDepth+4)
	var wg sync.WaitGroup
	for i := 0; i < SendRingDepth+4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- a.Send(2, []byte("jam"))
		}()
	}
	time.Sleep(20 * time.Millisecond)
	a.Close()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("senders stuck after close")
	}
}

func TestPingPongRoundTrip(t *testing.T) {
	a, b := openPair(t)
	provide(t, a, 4, 1024)
	provide(t, b, 4, 1024)
	payload := bytes.Repeat([]byte{0x5A}, 777)
	for i := 0; i < 100; i++ {
		if err := a.Send(2, payload); err != nil {
			t.Fatal(err)
		}
		r, ok := b.Receive()
		if !ok || !bytes.Equal(r.Buf[:r.N], payload) {
			t.Fatalf("iter %d: b recv", i)
		}
		if err := b.Provide(r.Buf, r.Token); err != nil {
			t.Fatal(err)
		}
		if err := b.Send(1, payload); err != nil {
			t.Fatal(err)
		}
		r, ok = a.Receive()
		if !ok || !bytes.Equal(r.Buf[:r.N], payload) {
			t.Fatalf("iter %d: a recv", i)
		}
		if err := a.Provide(r.Buf, r.Token); err != nil {
			t.Fatal(err)
		}
	}
}

func TestManySendersOneReceiver(t *testing.T) {
	f := NewFabric()
	dst, _ := f.Open(100)
	defer dst.Close()
	provide(t, dst, 400, 64)
	const senders, per = 4, 100
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		n, err := f.Open(Port(s + 1))
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		wg.Add(1)
		go func(n *NIC) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := n.Send(100, []byte("m")); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(n)
	}
	wg.Wait()
	got := 0
	deadline := time.After(2 * time.Second)
	for got < senders*per {
		if r, ok := dst.TryReceive(); ok {
			if r.N != 1 {
				t.Fatalf("recv n=%d", r.N)
			}
			got++
			continue
		}
		select {
		case <-deadline:
			t.Fatalf("received %d of %d", got, senders*per)
		default:
			time.Sleep(time.Millisecond)
		}
	}
}
