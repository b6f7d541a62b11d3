package daq

import (
	"errors"
	"sync"
	"testing"
	"time"

	"xdaq/internal/executive"
	"xdaq/internal/i2o"
)

// localExec builds one executive hosting the whole device tree; over the
// in-process dispatch path the tree protocol is exercised end to end
// without a fabric.
func localExec(t *testing.T) *executive.Executive {
	t.Helper()
	e := executive.New(executive.Options{
		Name: "tree", Node: 1,
		RequestTimeout: 3 * time.Second,
		Logf:           func(string, ...any) {},
	})
	t.Cleanup(e.Close)
	return e
}

// buildTree plugs an EVM, nRU readout units, a layer of aggregators with
// the given fan-in, and one BU wired to the aggregator roots.
func buildTree(t *testing.T, e *executive.Executive, nRU, fanin, fragSize int, events uint64, rangeSize uint32) (*EVM, []*RU, *BU) {
	t.Helper()
	evm := NewEVM(events)
	evm.SetSharding(8, rangeSize)
	if _, err := e.Plug(evm.Device()); err != nil {
		t.Fatal(err)
	}
	rus := make([]*RU, nRU)
	for i := range rus {
		rus[i] = NewRU(i, fragSize)
		rus[i].SetEVM(evm.Device().TID())
		if _, err := e.Plug(rus[i].Device()); err != nil {
			t.Fatal(err)
		}
	}
	var roots []i2o.TID
	for lo := 0; lo < nRU; lo += fanin {
		hi := lo + fanin
		if hi > nRU {
			hi = nRU
		}
		agg := NewAggregator(len(roots))
		if _, err := e.Plug(agg.Device()); err != nil {
			t.Fatal(err)
		}
		var children []AggChild
		for i := lo; i < hi; i++ {
			children = append(children, AggChild{TID: rus[i].Device().TID()})
		}
		agg.Configure(evm.Device().TID(), children)
		roots = append(roots, agg.Device().TID())
	}
	bu := NewBU(0)
	if _, err := e.Plug(bu.Device()); err != nil {
		t.Fatal(err)
	}
	bu.ConfigureTree(evm.Device().TID(), roots, nRU)
	return evm, rus, bu
}

func TestTreeTopologyBuildsAllEvents(t *testing.T) {
	const (
		nRU    = 8
		events = 64
		frag   = 96
	)
	e := localExec(t)
	evm, rus, bu := buildTree(t, e, nRU, 4, frag, events, 4)
	if _, err := bu.Start(0, 4); err != nil {
		t.Fatal(err)
	}
	stats, err := bu.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Built != events {
		t.Fatalf("built %d, want %d", stats.Built, events)
	}
	if stats.Corrupt != 0 {
		t.Fatalf("%d corrupt fragments", stats.Corrupt)
	}
	// The BU talks only to aggregator roots, so every byte counted here
	// travelled through the aggregator tree.
	if want := uint64(events * nRU * frag); stats.Bytes != want {
		t.Fatalf("bytes %d, want %d", stats.Bytes, want)
	}
	if evm.Built() != events || evm.Duplicates() != 0 {
		t.Fatalf("evm built=%d dup=%d", evm.Built(), evm.Duplicates())
	}
	for i, ru := range rus {
		if ru.Served() != events {
			t.Fatalf("ru %d served %d", i, ru.Served())
		}
	}
}

func TestDeepTreeAggregatorOfAggregators(t *testing.T) {
	const (
		nRU    = 4
		events = 24
		frag   = 64
	)
	e := localExec(t)
	evm := NewEVM(events)
	evm.SetSharding(4, 4)
	if _, err := e.Plug(evm.Device()); err != nil {
		t.Fatal(err)
	}
	rus := make([]*RU, nRU)
	for i := range rus {
		rus[i] = NewRU(i, frag)
		rus[i].SetEVM(evm.Device().TID())
		if _, err := e.Plug(rus[i].Device()); err != nil {
			t.Fatal(err)
		}
	}
	// Two leaf aggregators of two RUs each, one root over both.
	var leaves []*Aggregator
	for i := 0; i < 2; i++ {
		agg := NewAggregator(i)
		if _, err := e.Plug(agg.Device()); err != nil {
			t.Fatal(err)
		}
		agg.Configure(evm.Device().TID(), []AggChild{
			{TID: rus[2*i].Device().TID()},
			{TID: rus[2*i+1].Device().TID()},
		})
		leaves = append(leaves, agg)
	}
	root := NewAggregator(2)
	if _, err := e.Plug(root.Device()); err != nil {
		t.Fatal(err)
	}
	root.Configure(evm.Device().TID(), []AggChild{
		{TID: leaves[0].Device().TID(), Agg: true},
		{TID: leaves[1].Device().TID(), Agg: true},
	})
	bu := NewBU(0)
	if _, err := e.Plug(bu.Device()); err != nil {
		t.Fatal(err)
	}
	bu.ConfigureTree(evm.Device().TID(), []i2o.TID{root.Device().TID()}, nRU)

	if _, err := bu.Start(0, 2); err != nil {
		t.Fatal(err)
	}
	stats, err := bu.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Built != events || stats.Corrupt != 0 {
		t.Fatalf("built=%d corrupt=%d", stats.Built, stats.Corrupt)
	}
	if want := uint64(events * nRU * frag); stats.Bytes != want {
		t.Fatalf("bytes %d, want %d", stats.Bytes, want)
	}
}

// TestRUVersionSkewFenced pins the satellite requirement: a readout unit
// holding a stale shard map answers a transient FailStaleShard — and a
// builder the map does not name gets FailNotOwner — never a silently
// misrouted fragment.
func TestRUVersionSkewFenced(t *testing.T) {
	e := localExec(t)
	evm := NewEVM(100)
	evm.SetSharding(4, 4)
	if _, err := e.Plug(evm.Device()); err != nil {
		t.Fatal(err)
	}
	ru := NewRU(0, 64)
	ru.SetEVM(evm.Device().TID())
	if _, err := e.Plug(ru.Device()); err != nil {
		t.Fatal(err)
	}

	// Register builder 7: map version 1, every slot owned by 7.
	rep, err := e.Request(&i2o.Message{
		Target: evm.Device().TID(), Initiator: i2o.TIDExecutive,
		Function: i2o.FuncPrivate, Org: i2o.OrgXDAQ, XFunction: XFuncRegister,
		Payload: EncodeRegisterReq(RegisterReq{BU: 7, Node: 1}),
	})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := DecodeRegisterRep(rep.Payload)
	rep.Release()
	if err != nil || reg.Version != 1 {
		t.Fatalf("register: %+v %v", reg, err)
	}

	ask := func(req FragReq) (*FragRep, *i2o.FailRecord) {
		t.Helper()
		rep, err := e.Request(&i2o.Message{
			Target: ru.Device().TID(), Initiator: i2o.TIDExecutive,
			Function: i2o.FuncPrivate, Org: i2o.OrgXDAQ, XFunction: XFuncFragment,
			Payload: EncodeFragReq(req),
		})
		if err != nil {
			var rec *i2o.FailRecord
			if errors.As(err, &rec) {
				return nil, rec
			}
			t.Fatal(err)
		}
		defer rep.Release()
		fr, err := DecodeFragRep(rep.Payload)
		if err != nil {
			t.Fatal(err)
		}
		return &fr, nil
	}

	// The RU has not fetched a map yet: the correct-version request is
	// fenced as stale (transient), never served on faith.
	if fr, fail := ask(FragReq{Version: 1, BU: 7, First: 1, Count: 4}); fail == nil {
		t.Fatalf("unfetched map served %+v", fr)
	} else if fail.Code != FailStaleShard {
		t.Fatalf("unfetched map failed with %v, want FailStaleShard", fail.Code)
	}
	if ru.Stale() == 0 {
		t.Fatal("stale counter did not move")
	}

	// The fence triggered an asynchronous map fetch; once it lands the
	// same request is served.
	deadline := time.Now().Add(2 * time.Second)
	fr, fail := ask(FragReq{Version: 1, BU: 7, First: 1, Count: 4})
	for fail != nil && fail.Code == FailStaleShard && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		fr, fail = ask(FragReq{Version: 1, BU: 7, First: 1, Count: 4})
	}
	if fail != nil {
		t.Fatalf("refreshed map still fenced: %v", fail)
	}
	if len(fr.Frags) != 4 || fr.Version != 1 {
		t.Fatalf("served %+v", fr)
	}

	// A builder the map does not name is refused permanently.
	if _, fail := ask(FragReq{Version: 1, BU: 9, First: 1, Count: 4}); fail == nil || fail.Code != FailNotOwner {
		t.Fatalf("misrouted request not refused: %v", fail)
	}
	if ru.Refused() == 0 {
		t.Fatal("refused counter did not move")
	}

	// A request from the future fences again (and refetches).
	if _, fail := ask(FragReq{Version: 99, BU: 7, First: 1, Count: 4}); fail == nil || fail.Code != FailStaleShard {
		t.Fatalf("future-version request not fenced: %v", fail)
	}
}

// TestBUStatsRaceClean hammers Stats from other goroutines while a build
// runs; the race detector (internal/daq is in the Makefile race list)
// verifies the counters are safe under concurrent dispatchers and timers.
func TestBUStatsRaceClean(t *testing.T) {
	r := buildRig(t, 2, 1, 200, 64)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = r.bus[0].Stats()
					_ = r.evm.Built()
				}
			}
		}()
	}
	if _, err := r.bus[0].Start(0, 4); err != nil {
		t.Fatal(err)
	}
	stats, err := r.bus[0].Wait()
	close(stop)
	wg.Wait()
	if err != nil || stats.Built != 200 {
		t.Fatalf("built=%d err=%v", stats.Built, err)
	}
}
