package daq

import (
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"xdaq/internal/chain"
	"xdaq/internal/device"
	"xdaq/internal/executive"
	"xdaq/internal/i2o"
	"xdaq/internal/pta"
	"xdaq/internal/storage"
	"xdaq/internal/transport/loopback"
)

// storageRig is the full chain under test: EVM on node 1, RUs next,
// one BU, then the storage writers, all over loopback.
type storageRig struct {
	dir    string
	evm    *EVM
	bu     *BU
	buExec *executive.Executive
	sws    []*storage.SW
}

func buildStorageRig(t *testing.T, nRU, nSW int, events uint64, fragSize int, opts storage.Options) *storageRig {
	t.Helper()
	fabric := loopback.NewFabric()
	total := 1 + nRU + 1 + nSW
	ids := make([]i2o.NodeID, total)
	for i := range ids {
		ids[i] = i2o.NodeID(i + 1)
	}
	execs := make(map[i2o.NodeID]*executive.Executive, total)
	for _, id := range ids {
		e := executive.New(executive.Options{
			Name: "daq", Node: id,
			RequestTimeout: 3 * time.Second,
			Logf:           func(string, ...any) {},
		})
		agent, err := pta.New(e)
		if err != nil {
			t.Fatal(err)
		}
		ep, err := fabric.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := agent.Register(ep, pta.Task); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			agent.Close()
			e.Close()
		})
		for _, peer := range ids {
			if peer != id {
				e.SetRoute(peer, loopback.DefaultName)
			}
		}
		execs[id] = e
	}

	r := &storageRig{dir: t.TempDir()}
	r.evm = NewEVM(events)
	if _, err := execs[1].Plug(r.evm.Device()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nRU; i++ {
		ru := NewRU(i, fragSize)
		if _, err := execs[i2o.NodeID(2+i)].Plug(ru.Device()); err != nil {
			t.Fatal(err)
		}
	}
	buNode := i2o.NodeID(2 + nRU)
	opts.Dir = r.dir
	for i := 0; i < nSW; i++ {
		e := execs[i2o.NodeID(3+nRU+i)]
		sw := storage.NewSW(i, e.Allocator())
		if _, err := e.Plug(sw.Device()); err != nil {
			t.Fatal(err)
		}
		o := opts
		o.Instance = i
		w, err := storage.Open(o)
		if err != nil {
			t.Fatal(err)
		}
		sw.Attach(w)
		r.sws = append(r.sws, sw)
	}

	r.bu = NewBU(0)
	buExec := execs[buNode]
	r.buExec = buExec
	if _, err := buExec.Plug(r.bu.Device()); err != nil {
		t.Fatal(err)
	}
	evmTID, err := buExec.Discover(1, EVMClass, 0)
	if err != nil {
		t.Fatal(err)
	}
	ruTIDs := make([]i2o.TID, nRU)
	for j := 0; j < nRU; j++ {
		if ruTIDs[j], err = buExec.Discover(i2o.NodeID(2+j), RUClass, j); err != nil {
			t.Fatal(err)
		}
	}
	swTIDs := make([]i2o.TID, nSW)
	for j := 0; j < nSW; j++ {
		if swTIDs[j], err = buExec.Discover(i2o.NodeID(3+nRU+j), storage.ClassSW, j); err != nil {
			t.Fatal(err)
		}
	}
	r.bu.Configure(evmTID, ruTIDs)
	r.bu.SetStorage(swTIDs, 8)
	return r
}

// TestBUStreamsToStorage runs the whole acquisition pipeline: RUs feed
// the builder, every built event streams to its stripe's writer, and
// the run only completes when the store holds all of them.
func TestBUStreamsToStorage(t *testing.T) {
	const (
		events   = 30
		nRU      = 2
		fragSize = 128
	)
	r := buildStorageRig(t, nRU, 2, events, fragSize, storage.Options{ArenaSize: 1 << 16})
	if _, err := r.bu.Start(0, 4); err != nil {
		t.Fatal(err)
	}
	stats, err := r.bu.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Built != events || stats.Stored != events {
		t.Fatalf("built=%d stored=%d, want %d/%d", stats.Built, stats.Stored, events, events)
	}
	// The EVM allocates event ids from 1.
	for i, sw := range r.sws {
		for ev := uint64(1); ev <= events; ev++ {
			want := ev%2 == uint64(i)
			if sw.Writer().Contains(ev) != want {
				t.Fatalf("stripe %d: contains(%d)=%v, want %v", i, ev, !want, want)
			}
		}
		if err := sw.Writer().Close(); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := storage.LoadSet(r.dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != events {
		t.Fatalf("store holds %d events, want %d", len(recs), events)
	}
	for i, rec := range recs {
		if rec.Event != uint64(i+1) {
			t.Fatalf("record %d: event %d (lost or duplicated)", i, rec.Event)
		}
		if len(rec.Data) != nRU*fragSize {
			t.Fatalf("event %d: %d bytes, want %d", rec.Event, len(rec.Data), nRU*fragSize)
		}
		// Each fragment's fill byte identifies its RU and event.
		for ru := 0; ru < nRU; ru++ {
			fill := rec.Data[ru*fragSize]
			if fill != FragmentFill(0, rec.Event) && fill != FragmentFill(1, rec.Event) {
				t.Fatalf("event %d: fragment %d fill %#x unrecognized", rec.Event, ru, fill)
			}
		}
	}
}

// TestBUStorageBackpressure saturates a single slow writer and checks
// the window throttles the build instead of losing events: the run
// still completes, every event is durable, and the stall counter shows
// the backpressure actually engaged.
func TestBUStorageBackpressure(t *testing.T) {
	const events = 24
	r := buildStorageRig(t, 2, 1, events, 256, storage.Options{
		ArenaSize: 1 << 10,
		SimDelay:  2 * time.Millisecond,
	})
	if _, err := r.bu.Start(0, 4); err != nil {
		t.Fatal(err)
	}
	stats, err := r.bu.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Built != events || stats.Stored != events {
		t.Fatalf("built=%d stored=%d, want %d/%d", stats.Built, stats.Stored, events, events)
	}
	if stats.WriteStalls == 0 {
		t.Fatalf("expected write stalls from the saturated writer, got none (%+v)", stats)
	}
	if err := r.sws[0].Writer().Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := storage.LoadSet(r.dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != events {
		t.Fatalf("store holds %d events, want %d", len(recs), events)
	}
}

// TestBUStorageRetryTimersOutnumberPipeline is the regression test for
// the builder wedge: a pending AckFull retry timer counts against the
// pipeline, so when the write ack that drains the window arrives while such
// timers are at or above the pipeline, the ack cannot pump — and the
// expiring timer has to, or the run sits forever with nothing in flight.
// The writer here stores every event on its second attempt but nacks that
// attempt AckFull first (what a sweep resend racing the original looks
// like), so every event leaves one timer behind its own stored ack.
func TestBUStorageRetryTimersOutnumberPipeline(t *testing.T) {
	const events = 6
	r := buildStorageRig(t, 1, 0, events, 64, storage.Options{})

	var (
		mu       sync.Mutex
		attempts = map[uint64]int{}
		sw       = device.New(storage.ClassSW, 0)
	)
	reasm := chain.NewReassembler(r.buExec.Allocator(), func(tr *chain.Transfer) error {
		defer tr.Data.Release()
		var id [8]byte
		if _, err := tr.Data.CopyTo(0, id[:]); err != nil {
			return err
		}
		event := binary.LittleEndian.Uint64(id[:])
		mu.Lock()
		attempts[event]++
		n := attempts[event]
		mu.Unlock()
		acks := []uint32{storage.AckFull}
		if n >= 2 {
			acks = []uint32{storage.AckFull, storage.AckStored}
		}
		ctx, err := sw.Ctx()
		if err != nil {
			return err
		}
		for _, status := range acks {
			if err := ctx.Host.Send(&i2o.Message{
				Priority: i2o.PriorityHigh, Target: tr.Initiator, Initiator: sw.TID(),
				Function: i2o.FuncPrivate, Org: i2o.OrgXDAQ, XFunction: storage.XFuncWriteAck,
				Payload: storage.WriteAck{Event: event, Status: status}.Encode(nil),
			}); err != nil {
				return err
			}
		}
		return nil
	})
	sw.Bind(storage.XFuncWrite, reasm.Handler)
	swTID, err := r.buExec.Plug(sw)
	if err != nil {
		t.Fatal(err)
	}
	r.bu.SetStorage([]i2o.TID{swTID}, 1)

	done, err := r.bu.Start(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("run wedged: %+v", r.bu.Stats())
	}
	stats, err := r.bu.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Built != events || stats.Stored != events {
		t.Fatalf("built=%d stored=%d, want %d/%d", stats.Built, stats.Stored, events, events)
	}
}
