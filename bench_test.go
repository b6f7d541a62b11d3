package xdaq

// One benchmark per table/figure of the paper's evaluation, plus the
// ablations indexed in DESIGN.md.  The testing.B numbers are round-trip
// times (divide by two for the paper's one-way convention); the
// cmd/benchtab tool prints the same experiments in the paper's own table
// format with the published values alongside.

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"xdaq/internal/benchlab"
	"xdaq/internal/chain"
	"xdaq/internal/daq"
	"xdaq/internal/executive"
	"xdaq/internal/i2o"
	"xdaq/internal/orb"
	"xdaq/internal/pool"
	"xdaq/internal/probe"
	"xdaq/internal/pta"
	"xdaq/internal/rmi"
	"xdaq/internal/sgl"
	"xdaq/internal/transport/gm"
	"xdaq/internal/transport/loopback"
)

// --- Figure 6: blackbox ping-pong latency, XDAQ over GM vs GM direct ---

func BenchmarkFig6XDAQOverGM(b *testing.B) {
	rig, err := benchlab.NewGMRig(benchlab.RigConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer rig.Close()
	for _, size := range []int{1, 256, 1024, 4096} {
		b.Run(fmt.Sprintf("payload=%d", size), func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				if err := rig.RoundTrip(rig.Echo, size); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig6GMDirect(b *testing.B) {
	direct, err := benchlab.NewGMDirect()
	if err != nil {
		b.Fatal(err)
	}
	defer direct.Close()
	for _, size := range []int{1, 256, 1024, 4096} {
		payload := make([]byte, size)
		b.Run(fmt.Sprintf("payload=%d", size), func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				if err := direct.RoundTrip(payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Table 1: whitebox dispatch path with probes enabled ---

func BenchmarkTable1ProbedDispatch(b *testing.B) {
	reg := &probe.Registry{}
	rig, err := benchlab.NewGMRig(benchlab.RigConfig{Probes: reg})
	if err != nil {
		b.Fatal(err)
	}
	defer rig.Close()
	probe.Enable(true)
	defer probe.Enable(false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rig.RoundTrip(rig.Echo, 64); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, p := range reg.Points() {
		s := p.Stats()
		if s.Count > 0 {
			b.ReportMetric(float64(s.Median)/1e3, p.Name()+"-median-µs")
		}
	}
}

// --- §5 allocator ablation: original fixed pool vs optimized table pool ---

func BenchmarkAllocAblation(b *testing.B) {
	for _, alloc := range []string{"fixed", "table"} {
		b.Run(alloc, func(b *testing.B) {
			rig, err := benchlab.NewGMRig(benchlab.RigConfig{Allocator: alloc})
			if err != nil {
				b.Fatal(err)
			}
			defer rig.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := rig.RoundTrip(rig.Echo, 64); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Raw allocator microbenchmarks backing the ablation.
func BenchmarkPoolAlloc(b *testing.B) {
	fixed, err := pool.NewFixed(pool.DefaultFixedClasses())
	if err != nil {
		b.Fatal(err)
	}
	allocs := map[string]pool.Allocator{"fixed": fixed, "table": pool.NewTable(0)}
	for _, name := range []string{"fixed", "table"} {
		a := allocs[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf, err := a.Alloc(1024)
				if err != nil {
					b.Fatal(err)
				}
				buf.Release()
			}
		})
	}
}

// --- §6.2: the CORBA-like ORB baseline over the same fabric ---

func BenchmarkORBBaseline(b *testing.B) {
	fabric := gm.NewFabric()
	na, err := fabric.Open(1)
	if err != nil {
		b.Fatal(err)
	}
	nb, err := fabric.Open(2)
	if err != nil {
		b.Fatal(err)
	}
	wa, err := orb.NewGMWire(na, 2, 32)
	if err != nil {
		b.Fatal(err)
	}
	wb, err := orb.NewGMWire(nb, 1, 32)
	if err != nil {
		b.Fatal(err)
	}
	client := orb.NewEndpoint(wa)
	server := orb.NewEndpoint(wb)
	defer client.Close()
	defer server.Close()
	servant := orb.NewServant()
	servant.Register("echo", func(args []any) ([]any, error) { return args, nil })
	server.Bind("bench", servant)
	ref := client.Object("bench")
	payload := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ref.Invoke("echo", payload); err != nil {
			b.Fatal(err)
		}
	}
}

// The RMI adapters on top of XDAQ, for comparison with the ORB.
func BenchmarkRMIInvoke(b *testing.B) {
	rig, err := benchlab.NewGMRig(benchlab.RigConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer rig.Close()
	stub := rmi.NewStub(rig.A, rig.Echo)
	payload := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := stub.Invoke(benchlab.EchoXFunc,
			func(e *rmi.Encoder) { e.Bytes32(payload) },
			nil)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- §4 ablation: polling vs task mode peer transports ---

func BenchmarkPollingVsTask(b *testing.B) {
	cases := []struct {
		name string
		mode pta.Mode
		slow bool
	}{
		{"task", pta.Task, false},
		{"polling", pta.Polling, false},
		{"polling-with-slow-pt", pta.Polling, true},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			rig, err := benchlab.NewGMRig(benchlab.RigConfig{Mode: c.mode})
			if err != nil {
				b.Fatal(err)
			}
			defer rig.Close()
			if c.slow {
				if err := rig.AgentA.Register(benchlab.NewSlowPT("pt.slow", 100*time.Microsecond), pta.Polling); err != nil {
					b.Fatal(err)
				}
				if err := rig.AgentB.Register(benchlab.NewSlowPT("pt.slow", 100*time.Microsecond), pta.Polling); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := rig.RoundTrip(rig.Echo, 64); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- §4 ablation: multiple transports in parallel ---

func BenchmarkParallelTransports(b *testing.B) {
	for _, transports := range []int{1, 2} {
		b.Run(fmt.Sprintf("transports=%d", transports), func(b *testing.B) {
			// 128 KB payloads keep one modelled link fully serialized, so
			// the second transport pays off.
			res, err := benchlab.RunParallelTransportsN(time.Second, 131072, 4, transports)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res, "roundtrips/s")
		})
	}
}

// --- §3.2 ablation: seven-level priority scheduling under load ---

func BenchmarkPriorityDispatch(b *testing.B) {
	rig, err := benchlab.NewPriorityRig()
	if err != nil {
		b.Fatal(err)
	}
	defer rig.Close()
	const backlog = 512
	for _, prio := range []Priority{PriorityUrgent, PriorityBulk} {
		b.Run(fmt.Sprintf("priority=%d", prio), func(b *testing.B) {
			// Each iteration gates a probe behind a 512-frame bulk
			// backlog; ns/op is the gate-open-to-reply latency plus the
			// (identical) setup cost of seeding the backlog.
			for i := 0; i < b.N; i++ {
				if _, err := rig.Probe(prio, backlog); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- §4 ablation: scatter-gather lists vs flat copies ---

func BenchmarkSGL(b *testing.B) {
	p := pool.NewTable(0)
	const total = 4 << 20 // 4 MB payload, 16 chained 256 KB blocks
	src := make([]byte, total)
	b.Run("sgl-chain", func(b *testing.B) {
		b.SetBytes(total)
		for i := 0; i < b.N; i++ {
			l, err := sgl.FromBytes(p, src, pool.MaxBlock)
			if err != nil {
				b.Fatal(err)
			}
			n := 0
			for j := 0; j < l.Segments(); j++ {
				n += len(l.Segment(j))
			}
			if n != total {
				b.Fatalf("walked %d", n)
			}
			l.Release()
		}
	})
	b.Run("flat-copy", func(b *testing.B) {
		b.SetBytes(total)
		for i := 0; i < b.N; i++ {
			// The flat alternative: one oversized allocation per message
			// (the pool cannot serve it; this is exactly why SGLs exist).
			dst := make([]byte, total)
			copy(dst, src)
		}
	})
}

// --- Design ablation: the §4 watchdog (asynchronous handler termination)
// trades one goroutine hop per dispatch for protection against
// monopolizing handlers; this measures that price on a local echo ---

func BenchmarkWatchdogOverhead(b *testing.B) {
	for _, wd := range []time.Duration{0, 100 * time.Millisecond} {
		name := "disabled"
		if wd > 0 {
			name = "enabled"
		}
		b.Run(name, func(b *testing.B) {
			e := executive.New(executive.Options{
				Name: "wd", Node: 1, Watchdog: wd,
				Logf: func(string, ...any) {},
			})
			defer e.Close()
			echo := NewDevice("echo", 0)
			echo.Bind(1, func(ctx *Context, m *Message) error {
				return ReplyIfExpected(ctx, m, nil)
			})
			id, err := e.Plug(echo)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := e.Request(&Message{
					Target: id, Initiator: TIDExecutive,
					Function: i2o.FuncPrivate, Org: i2o.OrgXDAQ, XFunction: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				rep.Release()
			}
		})
	}
}

// --- §4 chained transfers: multi-megabyte payloads over 256 KB frames ---

func BenchmarkChainTransfer(b *testing.B) {
	e := executive.New(executive.Options{Name: "chain", Node: 1, Logf: func(string, ...any) {}})
	defer e.Close()
	done := make(chan struct{}, 1)
	reasm := chain.NewReassembler(e.Allocator(), func(t *chain.Transfer) error {
		t.Data.Release()
		done <- struct{}{}
		return nil
	})
	sink := NewDevice("sink", 0)
	sink.Bind(9, reasm.Handler)
	id, err := e.Plug(sink)
	if err != nil {
		b.Fatal(err)
	}
	const total = 2 << 20 // 2 MB per transfer
	data := make([]byte, total)
	b.SetBytes(total)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := chain.SendBytes(e, id, TIDExecutive, 9, PriorityBulk, uint32(i), data); err != nil {
			b.Fatal(err)
		}
		<-done
	}
}

// --- §7 "ongoing work": communication with and without hardware FIFO
// support — the same echo over the pointer-passing PCI message units, the
// zero-copy loopback, and the serializing GM fabric ---

func BenchmarkTransportComparison(b *testing.B) {
	runEcho := func(b *testing.B, connect func(a, bb *Node) error) {
		a, err := NewNode(NodeOptions{Name: "a", Node: 1, Logf: func(string, ...any) {}})
		if err != nil {
			b.Fatal(err)
		}
		defer a.Close()
		n2, err := NewNode(NodeOptions{Name: "b", Node: 2, Logf: func(string, ...any) {}})
		if err != nil {
			b.Fatal(err)
		}
		defer n2.Close()
		if err := connect(a, n2); err != nil {
			b.Fatal(err)
		}
		echo := NewDevice("echo", 0)
		echo.Bind(1, func(ctx *Context, m *Message) error {
			return ReplyIfExpected(ctx, m, m.Payload)
		})
		if _, err := n2.Plug(echo); err != nil {
			b.Fatal(err)
		}
		target, err := a.Discover(2, "echo", 0)
		if err != nil {
			b.Fatal(err)
		}
		payload := make([]byte, 64)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := a.Call(target, 1, payload); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("pci-hardware-fifos", func(b *testing.B) {
		runEcho(b, func(a, bb *Node) error { return Connect(PCI(0), Nodes(a, bb)) })
	})
	b.Run("loopback", func(b *testing.B) {
		runEcho(b, func(a, bb *Node) error { return Connect(Loopback(), Nodes(a, bb)) })
	})
	b.Run("gm-fabric", func(b *testing.B) {
		runEcho(b, func(a, bb *Node) error { return Connect(GM(), Nodes(a, bb)) })
	})
}

// --- Extension: event builder throughput (the paper's motivating DAQ) ---

// The flat topology is the legacy wiring: one builder asking every
// readout unit directly, one event per allocation.  The tree topology is
// the PR's hierarchical path: events granted in blocks of ebRangeSize,
// fragments pulled through aggregators with a bounded fan-in — per event
// it moves roughly (1+rus/fanin)/rangeSize + rus/rangeSize frames instead
// of flat's 1+rus, which is what lets the builder keep up as the readout
// count grows toward the paper's "hundreds of RUs".
const (
	ebFragSize  = 512
	ebFanin     = 16 // aggregator children per stage
	ebRangeSize = 8  // events per block on the hierarchical path
	ebRUsatNode = 8  // readout units packed per node
)

// ebRig is one event-builder deployment: EVM on node 1, readout units
// packed ebRUsatNode per node, the builder alone on the last node, and —
// on the tree topology — one aggregator per ebFanin readout units,
// placed on its first child's node.
type ebRig struct {
	bu    *daq.BU
	close func()
}

func newEBRig(b *testing.B, topo string, nRU int, events uint64) *ebRig {
	b.Helper()
	fabric := loopback.NewFabric()
	ruNodes := (nRU + ebRUsatNode - 1) / ebRUsatNode
	total := 2 + ruNodes // EVM + RU nodes + BU
	execs := make([]*executive.Executive, total)
	agents := make([]*pta.Agent, total)
	for i := range execs {
		id := i2o.NodeID(i + 1)
		e := executive.New(executive.Options{
			Name: "eb", Node: id,
			RequestTimeout: 10 * time.Second,
			Logf:           func(string, ...any) {},
		})
		agent, err := pta.New(e)
		if err != nil {
			b.Fatal(err)
		}
		ep, err := fabric.Attach(id)
		if err != nil {
			b.Fatal(err)
		}
		if err := agent.Register(ep, pta.Task); err != nil {
			b.Fatal(err)
		}
		execs[i], agents[i] = e, agent
	}
	for _, e := range execs {
		for _, peer := range execs {
			if e != peer {
				e.SetRoute(peer.Node(), loopback.DefaultName)
			}
		}
	}
	rig := &ebRig{close: func() {
		for i := range execs {
			agents[i].Close()
			execs[i].Close()
		}
	}}

	evm := daq.NewEVM(events)
	if topo == "tree" {
		evm.SetSharding(8, ebRangeSize)
	}
	if _, err := execs[0].Plug(evm.Device()); err != nil {
		b.Fatal(err)
	}
	ruExec := func(i int) *executive.Executive { return execs[1+i/ebRUsatNode] }
	rus := make([]*daq.RU, nRU)
	for i := 0; i < nRU; i++ {
		ru := daq.NewRU(i, ebFragSize)
		e := ruExec(i)
		evmTID, err := e.Discover(1, daq.EVMClass, 0)
		if err != nil {
			b.Fatal(err)
		}
		ru.SetEVM(evmTID)
		if _, err := e.Plug(ru.Device()); err != nil {
			b.Fatal(err)
		}
		rus[i] = ru
	}

	rig.bu = daq.NewBU(0)
	buExec := execs[total-1]
	if _, err := buExec.Plug(rig.bu.Device()); err != nil {
		b.Fatal(err)
	}
	evmFromBU, err := buExec.Discover(1, daq.EVMClass, 0)
	if err != nil {
		b.Fatal(err)
	}

	if topo == "flat" {
		ruTIDs := make([]i2o.TID, nRU)
		for i := range ruTIDs {
			if ruTIDs[i], err = buExec.Discover(ruExec(i).Node(), daq.RUClass, i); err != nil {
				b.Fatal(err)
			}
		}
		rig.bu.Configure(evmFromBU, ruTIDs)
		return rig
	}

	// Tree: one aggregator per ebFanin readout units, hosted on its first
	// child's node; the builder pulls super-fragments from the roots.
	nAgg := (nRU + ebFanin - 1) / ebFanin
	roots := make([]i2o.TID, nAgg)
	for a := 0; a < nAgg; a++ {
		first := a * ebFanin
		e := ruExec(first)
		agg := daq.NewAggregator(a)
		var children []daq.AggChild
		for i := first; i < first+ebFanin && i < nRU; i++ {
			tid := rus[i].Device().TID()
			if ruExec(i) != e {
				if tid, err = e.Discover(ruExec(i).Node(), daq.RUClass, i); err != nil {
					b.Fatal(err)
				}
			}
			children = append(children, daq.AggChild{TID: tid})
		}
		evmTID, err := e.Discover(1, daq.EVMClass, 0)
		if err != nil {
			b.Fatal(err)
		}
		agg.Configure(evmTID, children)
		if _, err := e.Plug(agg.Device()); err != nil {
			b.Fatal(err)
		}
		if roots[a], err = buExec.Discover(e.Node(), daq.AggClass, a); err != nil {
			b.Fatal(err)
		}
	}
	rig.bu.ConfigureTree(evmFromBU, roots, nRU)
	return rig
}

func BenchmarkEventBuilder(b *testing.B) {
	for _, topo := range []string{"flat", "tree"} {
		for _, nRU := range []int{4, 16, 64, 256} {
			b.Run(fmt.Sprintf("topo=%s/rus=%d", topo, nRU), func(b *testing.B) {
				rig := newEBRig(b, topo, nRU, uint64(b.N))
				defer rig.close()
				b.ResetTimer()
				if _, err := rig.bu.Start(0, 8); err != nil {
					b.Fatal(err)
				}
				stats, err := rig.bu.Wait()
				if err != nil {
					b.Fatal(err)
				}
				if stats.Built != uint64(b.N) {
					b.Fatalf("built %d of %d", stats.Built, b.N)
				}
				if stats.Corrupt != 0 {
					b.Fatalf("%d corrupt fragments", stats.Corrupt)
				}
				b.SetBytes(int64(nRU) * ebFragSize)
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
			})
		}
	}
}

// --- Multicore dispatch engine: hot-path allocations and worker scaling ---

// BenchmarkDispatchHotPath measures the steady-state local request/reply
// path: pooled frame descriptors, recycled pending-reply slots and the
// zero-copy echo below should leave it allocation-free per round trip.
func BenchmarkDispatchHotPath(b *testing.B) {
	e := executive.New(executive.Options{
		Name: "hot", Node: 1,
		RequestTimeout: 10 * time.Second,
		Logf:           func(string, ...any) {},
	})
	defer e.Close()
	d := NewDevice("echo", 0)
	d.Bind(1, func(ctx *Context, m *Message) error {
		if !m.Flags.Has(i2o.FlagReplyExpected) {
			return nil
		}
		// Zero-copy echo: the reply aliases the request's pool block and
		// takes its own reference, so the block survives the request
		// frame's recycling at end of dispatch.
		rep := i2o.NewReply(m)
		m.Retain()
		rep.AttachBuffer(m.Buffer())
		rep.Payload = m.Payload
		return ctx.Host.Send(rep)
	})
	id, err := e.Plug(d)
	if err != nil {
		b.Fatal(err)
	}
	const size = 64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := e.AllocMessage(size)
		if err != nil {
			b.Fatal(err)
		}
		m.Target = id
		m.Initiator = i2o.TIDExecutive
		m.XFunction = 1
		rep, err := e.Request(m)
		if err != nil {
			b.Fatal(err)
		}
		rep.Recycle()
	}
}

// benchSink defeats dead-code elimination of the CPU-bound handler body.
var benchSink atomic.Uint64

// BenchmarkMultiDeviceDispatch drives eight devices with small CPU-bound
// handlers from concurrent initiators, once with the paper's single loop
// of control and once with four parallel dispatch workers.  On a
// multi-core host the parallel engine should multiply roundtrips/s; on a
// single core the numbers show the engine's overhead instead.
func BenchmarkMultiDeviceDispatch(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("dispatchers=%d", workers), func(b *testing.B) {
			e := executive.New(executive.Options{
				Name: "multi", Node: 1,
				RequestTimeout: 30 * time.Second,
				Dispatchers:    workers,
				Logf:           func(string, ...any) {},
			})
			defer e.Close()
			const devices = 8
			ids := make([]i2o.TID, devices)
			for i := range ids {
				d := NewDevice("work", i)
				d.Bind(1, func(ctx *Context, m *Message) error {
					var sum uint64
					for j := uint64(0); j < 2000; j++ {
						sum += j * j
					}
					benchSink.Store(sum)
					return ReplyIfExpected(ctx, m, nil)
				})
				id, err := e.Plug(d)
				if err != nil {
					b.Fatal(err)
				}
				ids[i] = id
			}
			var next atomic.Uint64
			b.SetParallelism(devices) // initiators even on a small GOMAXPROCS
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := next.Add(1) % devices
					rep, err := e.Request(&i2o.Message{
						Priority: i2o.PriorityNormal, Target: ids[i],
						Initiator: i2o.TIDExecutive, Function: i2o.FuncPrivate,
						Org: i2o.OrgXDAQ, XFunction: 1,
					})
					if err != nil {
						b.Fatal(err)
					}
					rep.Recycle()
				}
			})
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "roundtrips/s")
		})
	}
}
