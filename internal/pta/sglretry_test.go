package pta

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"xdaq/internal/i2o"
	"xdaq/internal/pool"
	"xdaq/internal/sgl"
)

// flakySGLPT refuses the first fail sends with a transient error —
// releasing the frame exactly as real transports do — and keeps every
// accepted frame for inspection.
type flakySGLPT struct {
	name string
	mu   sync.Mutex
	fail int
	sent []*i2o.Message
}

func (f *flakySGLPT) Name() string { return f.name }

func (f *flakySGLPT) Send(dst i2o.NodeID, m *i2o.Message) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail > 0 {
		f.fail--
		m.Release()
		return fmt.Errorf("%w: scripted refusal", ErrTransient)
	}
	f.sent = append(f.sent, m)
	return nil
}

func (f *flakySGLPT) Start(Deliver) error   { return nil }
func (f *flakySGLPT) Poll(Deliver, int) int { return 0 }
func (f *flakySGLPT) Stop() error           { return nil }

// A frame whose body is a segment list must survive transient-failure
// retries with the list intact: the transport released the frame, and the
// retry loop must re-attach the chain as a *list*, not as a flat buffer —
// and the guard's release must not tear the chain down under the transport
// that finally accepted it.
func TestRetryPreservesSegmentList(t *testing.T) {
	_, a := newAgent(t)
	pt := &flakySGLPT{name: "pt.flaky", fail: 2}
	if err := a.Register(pt, Task); err != nil {
		t.Fatal(err)
	}
	a.SetRetryPolicy(RetryPolicy{Attempts: 4, Backoff: time.Millisecond})

	alloc := pool.NewTable(0)
	data := make([]byte, 10_000)
	for i := range data {
		data[i] = byte(i * 31)
	}
	l, err := sgl.FromBytes(alloc, data, 4096)
	if err != nil {
		t.Fatal(err)
	}
	m := i2o.AcquireMessage()
	m.Target, m.Initiator = 5, i2o.TIDExecutive
	m.Function, m.Org, m.XFunction = i2o.FuncPrivate, i2o.OrgXDAQ, 0x77
	m.AttachList(l)

	if err := a.Forward("pt.flaky", 2, m); err != nil {
		t.Fatalf("forward with retries: %v", err)
	}
	if len(pt.sent) != 1 {
		t.Fatalf("transport accepted %d frames, want 1", len(pt.sent))
	}
	got := pt.sent[0]
	if got.PayloadLen() != len(data) {
		t.Fatalf("accepted frame carries %d payload bytes, want %d — the body was lost across retries",
			got.PayloadLen(), len(data))
	}
	gl, ok := got.List().(*sgl.List)
	if !ok {
		t.Fatalf("accepted frame has no segment list (buffer %T)", got.Buffer())
	}
	body := make([]byte, gl.Len())
	if _, err := gl.CopyTo(0, body); err != nil || !bytes.Equal(body, data) {
		t.Fatal("accepted frame's chained body differs from the original")
	}

	// The transport writes the frame out and recycles it; every block must
	// go home.
	got.Recycle()
	if inUse := alloc.Stats().InUse; inUse != 0 {
		t.Fatalf("%d blocks leaked across retries", inUse)
	}
}
