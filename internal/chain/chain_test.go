package chain

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"xdaq/internal/device"
	"xdaq/internal/executive"
	"xdaq/internal/i2o"
	"xdaq/internal/pool"
	"xdaq/internal/pta"
	"xdaq/internal/sgl"
	"xdaq/internal/transport/gm"
)

// flat reads a whole transfer body through CopyTo.
func flat(l *sgl.List) []byte {
	out := make([]byte, l.Len())
	if _, err := l.CopyTo(0, out); err != nil {
		panic(err)
	}
	return out
}

const xferXFunc uint16 = 9

// rig wires a sender executive to a receiver executive over GM, with a
// reassembling sink device on the receiver.
type rig struct {
	sender, receiver *executive.Executive
	sink             i2o.TID // proxy on sender for the sink on receiver
	done             chan *Transfer
	reasm            *Reassembler
}

func buildRig(t *testing.T) *rig {
	t.Helper()
	fabric := gm.NewFabric()
	fabric.SetBandwidth(0) // copies only; these tests move megabytes
	routes := map[i2o.NodeID]gm.Port{1: 1, 2: 2}
	mk := func(id i2o.NodeID) (*executive.Executive, *pta.Agent) {
		e := executive.New(executive.Options{
			Name: "chain", Node: id,
			RequestTimeout: 5 * time.Second,
			Logf:           func(string, ...any) {},
		})
		nic, err := fabric.Open(routes[id])
		if err != nil {
			t.Fatal(err)
		}
		tr, err := gm.NewTransport(nic, e.Allocator(), gm.Config{Routes: routes})
		if err != nil {
			t.Fatal(err)
		}
		agent, err := pta.New(e)
		if err != nil {
			t.Fatal(err)
		}
		if err := agent.Register(tr, pta.Task); err != nil {
			t.Fatal(err)
		}
		e.SetRoute(1, gm.PTName)
		e.SetRoute(2, gm.PTName)
		t.Cleanup(func() {
			agent.Close()
			e.Close()
		})
		return e, agent
	}
	s, _ := mk(1)
	r, _ := mk(2)

	rg := &rig{sender: s, receiver: r, done: make(chan *Transfer, 16)}
	rg.reasm = NewReassembler(r.Allocator(), func(tr *Transfer) error {
		rg.done <- tr
		return nil
	})
	sink := device.New("xfersink", 0)
	sink.Bind(xferXFunc, rg.reasm.Handler)
	if _, err := r.Plug(sink); err != nil {
		t.Fatal(err)
	}
	proxy, err := s.Discover(2, "xfersink", 0)
	if err != nil {
		t.Fatal(err)
	}
	rg.sink = proxy
	return rg
}

func (rg *rig) wait(t *testing.T) *Transfer {
	t.Helper()
	select {
	case tr := <-rg.done:
		return tr
	case <-time.After(10 * time.Second):
		t.Fatal("transfer never completed")
		return nil
	}
}

func TestSingleChunkTransfer(t *testing.T) {
	rg := buildRig(t)
	data := []byte("small transfer")
	if err := SendBytes(rg.sender, rg.sink, i2o.TIDExecutive, xferXFunc, i2o.PriorityNormal, 1, data); err != nil {
		t.Fatal(err)
	}
	tr := rg.wait(t)
	defer tr.Data.Release()
	if tr.ID != 1 || !bytes.Equal(flat(tr.Data), data) {
		t.Fatalf("transfer %d: %q", tr.ID, flat(tr.Data))
	}
}

func TestMultiMegabyteTransfer(t *testing.T) {
	rg := buildRig(t)
	data := make([]byte, 3*pool.MaxBlock+12345) // forces several chunks
	rand.New(rand.NewSource(3)).Read(data)
	if err := SendBytes(rg.sender, rg.sink, i2o.TIDExecutive, xferXFunc, i2o.PriorityBulk, 7, data); err != nil {
		t.Fatal(err)
	}
	tr := rg.wait(t)
	defer tr.Data.Release()
	if tr.Data.Len() != len(data) {
		t.Fatalf("length %d, want %d", tr.Data.Len(), len(data))
	}
	if !bytes.Equal(flat(tr.Data), data) {
		t.Fatal("content mismatch")
	}
	chunks, transfers := rg.reasm.Stats()
	if transfers != 1 || chunks < 4 {
		t.Fatalf("chunks=%d transfers=%d", chunks, transfers)
	}
}

func TestEmptyTransfer(t *testing.T) {
	rg := buildRig(t)
	if err := SendBytes(rg.sender, rg.sink, i2o.TIDExecutive, xferXFunc, i2o.PriorityNormal, 2, nil); err != nil {
		t.Fatal(err)
	}
	tr := rg.wait(t)
	defer tr.Data.Release()
	if tr.Data.Len() != 0 {
		t.Fatalf("empty transfer has %d bytes", tr.Data.Len())
	}
}

func TestInterleavedTransfers(t *testing.T) {
	rg := buildRig(t)
	// Two transfers whose chunks interleave: send chunk streams from two
	// goroutines with distinct transfer ids.
	mk := func(seed int64, size int) []byte {
		b := make([]byte, size)
		rand.New(rand.NewSource(seed)).Read(b)
		return b
	}
	d1 := mk(1, pool.MaxBlock+100)
	d2 := mk(2, 2*pool.MaxBlock+5)
	go func() {
		_ = SendBytes(rg.sender, rg.sink, i2o.TIDExecutive, xferXFunc, i2o.PriorityNormal, 11, d1)
	}()
	go func() {
		_ = SendBytes(rg.sender, rg.sink, i2o.TIDExecutive, xferXFunc, i2o.PriorityNormal, 22, d2)
	}()
	got := map[uint32][]byte{}
	for len(got) < 2 {
		tr := rg.wait(t)
		got[tr.ID] = append([]byte(nil), flat(tr.Data)...)
		tr.Data.Release()
	}
	if !bytes.Equal(got[11], d1) || !bytes.Equal(got[22], d2) {
		t.Fatal("interleaved transfers corrupted")
	}
}

func TestNoLeaksAfterTransfers(t *testing.T) {
	rg := buildRig(t)
	data := make([]byte, 2*pool.MaxBlock)
	for i := 0; i < 5; i++ {
		if err := SendBytes(rg.sender, rg.sink, i2o.TIDExecutive, xferXFunc, i2o.PriorityNormal, uint32(i), data); err != nil {
			t.Fatal(err)
		}
		tr := rg.wait(t)
		tr.Data.Release()
	}
	if rg.reasm.Pending() != 0 {
		t.Fatalf("%d transfers still pending", rg.reasm.Pending())
	}
	// Allow the last released frames to recycle.
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if rg.sender.Allocator().Stats().InUse == 32 && rg.receiver.Allocator().Stats().InUse == 32 {
			return // exactly the PTs' provided blocks remain
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("blocks in use: sender=%d receiver=%d (want 32 each)",
		rg.sender.Allocator().Stats().InUse, rg.receiver.Allocator().Stats().InUse)
}

// directHandler tests the reassembler without a network.
func directReassembler(t *testing.T) (*Reassembler, *device.Context, chan *Transfer) {
	t.Helper()
	done := make(chan *Transfer, 4)
	alloc := pool.NewTable(0)
	r := NewReassembler(alloc, func(tr *Transfer) error {
		done <- tr
		return nil
	})
	d := device.New("sink", 0)
	d.Bind(xferXFunc, r.Handler)
	e := executive.New(executive.Options{Name: "x", Node: 1, Logf: func(string, ...any) {}})
	t.Cleanup(e.Close)
	if _, err := e.Plug(d); err != nil {
		t.Fatal(err)
	}
	ctx, err := d.Ctx()
	if err != nil {
		t.Fatal(err)
	}
	return r, ctx, done
}

func chunkFrame(seq, chunks uint32, total uint64, body []byte, id uint32) *i2o.Message {
	payload := make([]byte, headerSize+len(body))
	binary.LittleEndian.PutUint32(payload, seq)
	binary.LittleEndian.PutUint32(payload[4:], chunks)
	binary.LittleEndian.PutUint64(payload[8:], total)
	copy(payload[headerSize:], body)
	return &i2o.Message{
		Target: 5, Initiator: 9,
		Function: i2o.FuncPrivate, Org: i2o.OrgXDAQ, XFunction: xferXFunc,
		TransactionContext: id,
		Payload:            payload,
	}
}

func TestReassemblerRejectsMalformed(t *testing.T) {
	r, ctx, _ := directReassembler(t)
	cases := []*i2o.Message{
		{Payload: []byte{1, 2, 3}},                        // short header
		chunkFrame(0, 0, 0, nil, 1),                       // zero chunks
		chunkFrame(5, 2, 10, nil, 1),                      // seq out of range
		chunkFrame(0, 1, 4, []byte("too long body"), 1),   // wrong body size
		chunkFrame(0, 2, MaxChunk+10, []byte("short"), 1), // wrong body size
	}
	for i, m := range cases {
		if err := r.Handler(ctx, m); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestReassemblerDuplicateChunk(t *testing.T) {
	r, ctx, done := directReassembler(t)
	body := []byte("abcd")
	two := make([]byte, MaxChunk)
	// chunks=2: first chunk MaxChunk bytes, second 4 bytes.
	total := uint64(MaxChunk + len(body))
	if err := r.Handler(ctx, chunkFrame(0, 2, total, two, 3)); err != nil {
		t.Fatal(err)
	}
	if err := r.Handler(ctx, chunkFrame(0, 2, total, two, 3)); err != nil {
		t.Fatalf("duplicate chunk: %v", err)
	}
	if err := r.Handler(ctx, chunkFrame(1, 2, total, body, 3)); err != nil {
		t.Fatal(err)
	}
	tr := <-done
	defer tr.Data.Release()
	if tr.Data.Len() != int(total) {
		t.Fatalf("len %d", tr.Data.Len())
	}
}

func TestReassemblerInconsistentShape(t *testing.T) {
	r, ctx, _ := directReassembler(t)
	two := make([]byte, MaxChunk)
	if err := r.Handler(ctx, chunkFrame(0, 2, uint64(MaxChunk+4), two, 4)); err != nil {
		t.Fatal(err)
	}
	err := r.Handler(ctx, chunkFrame(1, 3, uint64(MaxChunk+4), []byte("abcd"), 4))
	if !errors.Is(err, ErrInconsistent) {
		t.Fatalf("reshaped transfer: %v", err)
	}
}

func TestAbortReleasesBlocks(t *testing.T) {
	r, ctx, _ := directReassembler(t)
	two := make([]byte, MaxChunk)
	if err := r.Handler(ctx, chunkFrame(0, 2, uint64(MaxChunk+4), two, 5)); err != nil {
		t.Fatal(err)
	}
	if r.Pending() != 1 {
		t.Fatal("transfer not pending")
	}
	if !r.Abort(9, 5) {
		t.Fatal("abort missed")
	}
	if r.Abort(9, 5) {
		t.Fatal("second abort succeeded")
	}
	if r.Pending() != 0 {
		t.Fatal("still pending after abort")
	}
}

func TestNilCallbackReleases(t *testing.T) {
	alloc := pool.NewTable(0)
	r := NewReassembler(alloc, nil)
	d := device.New("sink", 0)
	d.Bind(xferXFunc, r.Handler)
	e := executive.New(executive.Options{Name: "x", Node: 1, Logf: func(string, ...any) {}})
	defer e.Close()
	if _, err := e.Plug(d); err != nil {
		t.Fatal(err)
	}
	ctx, _ := d.Ctx()
	if err := r.Handler(ctx, chunkFrame(0, 1, 4, []byte("abcd"), 6)); err != nil {
		t.Fatal(err)
	}
	if alloc.Stats().InUse != 0 {
		t.Fatal("nil callback leaked the transfer")
	}
}

func TestQuickChunkingRoundTrip(t *testing.T) {
	// Pure local round trip: Send writes into a capture host, Reassembler
	// consumes, bytes must match for arbitrary sizes.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		size := r.Intn(3 * pool.MaxBlock)
		data := make([]byte, size)
		r.Read(data)

		alloc := pool.NewTable(0)
		done := make(chan *Transfer, 1)
		reasm := NewReassembler(alloc, func(tr *Transfer) error {
			done <- tr
			return nil
		})
		d := device.New("sink", 0)
		d.Bind(xferXFunc, reasm.Handler)
		e := executive.New(executive.Options{Name: "q", Node: 1, Logf: func(string, ...any) {}})
		defer e.Close()
		id, err := e.Plug(d)
		if err != nil {
			return false
		}
		if err := SendBytes(e, id, i2o.TIDExecutive, xferXFunc, i2o.PriorityNormal, 1, data); err != nil {
			return false
		}
		select {
		case tr := <-done:
			ok := bytes.Equal(flat(tr.Data), data)
			tr.Data.Release()
			return ok
		case <-time.After(5 * time.Second):
			return false
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
