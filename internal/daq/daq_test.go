package daq

import (
	"strings"
	"testing"
	"time"

	"xdaq/internal/executive"
	"xdaq/internal/i2o"
	"xdaq/internal/pta"
	"xdaq/internal/transport/loopback"
)

// rig is a small DAQ system for tests: EVM on node 1, RUs on nodes 2..,
// BUs on the last nodes, all over loopback.
type rig struct {
	execs map[i2o.NodeID]*executive.Executive
	evm   *EVM
	rus   []*RU
	bus   []*BU
}

func buildRig(t *testing.T, nRU, nBU int, events uint64, fragSize int) *rig {
	t.Helper()
	fabric := loopback.NewFabric()
	r := &rig{execs: make(map[i2o.NodeID]*executive.Executive)}
	total := 1 + nRU + nBU
	ids := make([]i2o.NodeID, total)
	for i := range ids {
		ids[i] = i2o.NodeID(i + 1)
	}
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
		r.execs[id] = e
	}

	r.evm = NewEVM(events)
	if _, err := r.execs[1].Plug(r.evm.Device()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nRU; i++ {
		ru := NewRU(i, fragSize)
		if _, err := r.execs[i2o.NodeID(2+i)].Plug(ru.Device()); err != nil {
			t.Fatal(err)
		}
		r.rus = append(r.rus, ru)
	}
	for i := 0; i < nBU; i++ {
		bu := NewBU(i)
		buExec := r.execs[i2o.NodeID(2+nRU+i)]
		if _, err := buExec.Plug(bu.Device()); err != nil {
			t.Fatal(err)
		}
		evmTID, err := buExec.Discover(1, EVMClass, 0)
		if err != nil {
			t.Fatal(err)
		}
		ruTIDs := make([]i2o.TID, nRU)
		for j := 0; j < nRU; j++ {
			ruTIDs[j], err = buExec.Discover(i2o.NodeID(2+j), RUClass, j)
			if err != nil {
				t.Fatal(err)
			}
		}
		bu.Configure(evmTID, ruTIDs)
		r.bus = append(r.bus, bu)
	}
	return r
}

func TestSingleBUBuildsAllEvents(t *testing.T) {
	r := buildRig(t, 3, 1, 20, 256)
	if _, err := r.bus[0].Start(0, 4); err != nil {
		t.Fatal(err)
	}
	stats, err := r.bus[0].Wait()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Built != 20 {
		t.Fatalf("built %d, want 20", stats.Built)
	}
	if stats.Corrupt != 0 {
		t.Fatalf("%d corrupt fragments", stats.Corrupt)
	}
	if want := uint64(20 * 3 * 256); stats.Bytes != want {
		t.Fatalf("bytes %d, want %d", stats.Bytes, want)
	}
	if r.evm.Allocated() != 20 || r.evm.Built() != 20 {
		t.Fatalf("evm allocated=%d built=%d", r.evm.Allocated(), r.evm.Built())
	}
	for i, ru := range r.rus {
		if ru.Served() != 20 {
			t.Fatalf("ru %d served %d", i, ru.Served())
		}
	}
}

func TestMultipleBUsShareEventStream(t *testing.T) {
	const events = 60
	r := buildRig(t, 2, 3, events, 128)
	for _, bu := range r.bus {
		if _, err := bu.Start(0, 3); err != nil {
			t.Fatal(err)
		}
	}
	var total uint64
	for i, bu := range r.bus {
		stats, err := bu.Wait()
		if err != nil {
			t.Fatalf("bu %d: %v", i, err)
		}
		total += stats.Built
	}
	if total != events {
		t.Fatalf("total built %d, want %d", total, events)
	}
	if r.evm.Built() != events {
		t.Fatalf("evm built %d", r.evm.Built())
	}
}

func TestBUTargetBelowLimit(t *testing.T) {
	r := buildRig(t, 2, 1, 100, 64)
	if _, err := r.bus[0].Start(10, 2); err != nil {
		t.Fatal(err)
	}
	stats, err := r.bus[0].Wait()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Built != 10 {
		t.Fatalf("built %d, want 10", stats.Built)
	}
}

func TestBURestartableAfterCompletion(t *testing.T) {
	r := buildRig(t, 1, 1, 0, 64) // unbounded EVM
	if _, err := r.bus[0].Start(5, 2); err != nil {
		t.Fatal(err)
	}
	if stats, err := r.bus[0].Wait(); err != nil || stats.Built != 5 {
		t.Fatalf("first run: %v %v", stats, err)
	}
	if _, err := r.bus[0].Start(7, 2); err != nil {
		t.Fatal(err)
	}
	if stats, err := r.bus[0].Wait(); err != nil || stats.Built != 7 {
		t.Fatalf("second run: %v %v", stats, err)
	}
}

func TestBUDoubleStartRefused(t *testing.T) {
	r := buildRig(t, 1, 1, 0, 64)
	if _, err := r.bus[0].Start(1000, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := r.bus[0].Start(1, 1); err == nil || !strings.Contains(err.Error(), "already running") {
		t.Fatalf("double start: %v", err)
	}
	if _, err := r.bus[0].Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestBUUnconfigured(t *testing.T) {
	r := buildRig(t, 1, 1, 0, 64)
	bu := NewBU(9)
	if _, err := r.execs[1].Plug(bu.Device()); err != nil {
		t.Fatal(err)
	}
	if _, err := bu.Start(1, 1); err == nil || !strings.Contains(err.Error(), "not configured") {
		t.Fatalf("unconfigured start: %v", err)
	}
	unplugged := NewBU(10)
	if _, err := unplugged.Start(1, 1); err == nil {
		t.Fatal("unplugged start succeeded")
	}
}

func TestOnEventCallback(t *testing.T) {
	r := buildRig(t, 2, 1, 4, 32)
	var events []uint64
	r.bus[0].OnEvent = func(event uint64, size int) {
		events = append(events, event)
		if size != 2*32 {
			t.Errorf("event %d size %d", event, size)
		}
	}
	if _, err := r.bus[0].Start(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := r.bus[0].Wait(); err != nil {
		t.Fatal(err)
	}
	if len(events) != 4 {
		t.Fatalf("callback saw %d events", len(events))
	}
}

func TestEVMReconfigurableViaParams(t *testing.T) {
	evm := NewEVM(10)
	evm.Device().Params().Set("events", int64(3))
	// The OnSet hook fires only through UtilParamsSet; simulate the store
	// update path used by the cluster controller.
	r := buildRig(t, 1, 1, 10, 32)
	payload, err := i2o.EncodeParams([]i2o.Param{{Key: "events", Value: int64(3)}})
	if err != nil {
		t.Fatal(err)
	}
	evmTID, err := r.execs[1].Resolve(EVMClass, 0, i2o.NodeNone)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.execs[1].Request(&i2o.Message{
		Target: evmTID, Initiator: i2o.TIDExecutive,
		Function: i2o.UtilParamsSet, Payload: payload,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep.Release()
	if _, err := r.bus[0].Start(0, 2); err != nil {
		t.Fatal(err)
	}
	stats, err := r.bus[0].Wait()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Built != 3 {
		t.Fatalf("built %d after reconfiguration, want 3", stats.Built)
	}
}

func TestRUFragSizeReconfigurable(t *testing.T) {
	r := buildRig(t, 1, 1, 5, 100)
	payload, _ := i2o.EncodeParams([]i2o.Param{{Key: "fragsize", Value: int64(500)}})
	ruTID, err := r.execs[2].Resolve(RUClass, 0, i2o.NodeNone)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.execs[2].Request(&i2o.Message{
		Target: ruTID, Initiator: i2o.TIDExecutive,
		Function: i2o.UtilParamsSet, Payload: payload,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep.Release()
	if _, err := r.bus[0].Start(0, 1); err != nil {
		t.Fatal(err)
	}
	stats, err := r.bus[0].Wait()
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(5 * 500); stats.Bytes != want {
		t.Fatalf("bytes %d, want %d", stats.Bytes, want)
	}
}

func TestEVMReset(t *testing.T) {
	evm := NewEVM(5)
	evm.allocated.Add(5)
	evm.built.Add(5)
	evm.Reset(8)
	if evm.Allocated() != 0 || evm.Built() != 0 || evm.limit.Load() != 8 {
		t.Fatal("reset")
	}
}

func TestFragmentFillDistinct(t *testing.T) {
	// Different RUs must produce different fills for the same event most
	// of the time (the corruption check depends on it being meaningful).
	same := 0
	for e := uint64(0); e < 100; e++ {
		if FragmentFill(0, e) == FragmentFill(1, e) {
			same++
		}
	}
	if same > 10 {
		t.Fatalf("fill bytes collide for %d of 100 events", same)
	}
}

func TestNoBufferLeaksAfterRun(t *testing.T) {
	r := buildRig(t, 2, 1, 50, 512)
	if _, err := r.bus[0].Start(0, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := r.bus[0].Wait(); err != nil {
		t.Fatal(err)
	}
	// Loopback passes pointers; every fragment buffer must be back in a
	// pool once the run completed.
	time.Sleep(50 * time.Millisecond) // let the final XFuncBuilt frames drain
	for id, e := range r.execs {
		if in := e.Allocator().Stats().InUse; in != 0 {
			t.Errorf("node %v: %d buffers in use", id, in)
		}
	}
}
