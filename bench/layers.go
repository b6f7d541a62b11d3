package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"xdaq"
	"xdaq/internal/i2o"
	"xdaq/internal/metrics"
	"xdaq/internal/pool"
	"xdaq/internal/queue"
	"xdaq/internal/storage"
)

// Per-layer numbers come from two places, both outside the library:
// probes, which time one layer's public functions alone at the
// workload's frame size, and counts, which are deltas of the nodes' own
// registries and of the runtime around the traced interval.

// probeNs times n calls of f, five times over, and returns the median
// cost of one call in ns.
func probeNs(n int, f func()) float64 {
	per := make([]float64, 5)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		per[b] = float64(time.Since(t0)) / float64(n)
	}
	return median(per)
}

// probePool times Allocator.Alloc + Release.
func probePool(size int) (float64, error) {
	p := pool.NewTable(0)
	defer p.Close()
	var err error
	ns := probeNs(100_000, func() {
		b, e := p.Alloc(size)
		if e != nil {
			err = e
			return
		}
		b.Release()
	})
	return ns, err
}

// probeQueue times Sched.Push + PopExclusiveBatch + DeviceDone, the
// scheduler's share of one dispatched frame.
func probeQueue() (float64, error) {
	s := queue.NewSched(0)
	defer s.Close()
	m := &i2o.Message{Priority: i2o.PriorityNormal, Target: 42, Function: i2o.FuncPrivate}
	dst := make([]*i2o.Message, 1)
	var epoch uint64
	var err error
	ns := probeNs(100_000, func() {
		if e := s.Push(m); e != nil {
			err = e
			return
		}
		if n, _ := s.PopExclusiveBatch(dst, &epoch); n != 1 {
			err = errors.New("queue probe: frame not popped")
			return
		}
		s.DeviceDone(m.Target)
	})
	return ns, err
}

// probeLocalCall times CallContext to an echo device on the caller's own
// node: the executive's whole request/reply path with no pta and no
// transport.  Returns us.
func probeLocalCall(size int) (float64, error) {
	node, err := xdaq.NewNode(xdaq.NodeOptions{Name: "probe", Node: 1, Logf: quiet})
	if err != nil {
		return 0, err
	}
	defer node.Close()
	echo := xdaq.NewDevice("echo", 0)
	echo.Bind(rrXFunc, func(ctx *xdaq.Context, m *xdaq.Message) error {
		return xdaq.ReplyIfExpected(ctx, m, m.Payload)
	})
	id, err := node.Plug(echo)
	if err != nil {
		return 0, err
	}
	payload := make([]byte, size)
	ns := probeNs(20_000, func() {
		if _, e := node.CallContext(context.Background(), id, rrXFunc, payload); e != nil {
			err = e
		}
	})
	return ns / 1e3, err
}

// probeCodec times Message.Encode + DecodeAcquired + Recycle, what the
// tcp transport pays per frame on top of the socket.
func probeCodec(size int) (float64, error) {
	m := &i2o.Message{
		Priority: i2o.PriorityNormal, Target: 42, Initiator: i2o.TIDExecutive,
		Function: i2o.FuncPrivate, Org: i2o.OrgXDAQ, XFunction: 1,
		Payload: make([]byte, size),
	}
	buf := make([]byte, m.WireSize())
	var err error
	ns := probeNs(100_000, func() {
		if _, e := m.Encode(buf); e != nil {
			err = e
			return
		}
		d, _, e := i2o.DecodeAcquired(buf)
		if e != nil {
			err = e
			return
		}
		d.Recycle()
	})
	return ns, err
}

type bytesSource []byte

func (b bytesSource) CopyTo(off int, dst []byte) (int, error) { return copy(dst, b[off:]), nil }

// probeAppend times Writer.Append alone, one event's worth of bytes per
// record, into a scratch segment under dir.  A full writer is retried,
// so a disk slower than the copy shows as a higher cost.
func probeAppend(dir string, size int) (float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	tmp, err := os.MkdirTemp(dir, "probe-append-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(tmp)
	const perBatch = 2_000
	w, err := storage.Open(storage.Options{Dir: tmp, ArenaSize: ebArena, IndexHint: 5 * perBatch})
	if err != nil {
		return 0, err
	}
	src := bytesSource(make([]byte, size))
	event := uint64(0)
	ns := probeNs(perBatch, func() {
		event++
		for {
			e := w.Append(event, size, src)
			if e == nil {
				return
			}
			if !errors.Is(e, storage.ErrWriterFull) {
				err = e
				return
			}
			runtime.Gosched()
		}
	})
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	return ns, err
}

// counters sums every node's registry into one flat map: counters and
// gauges by name, histograms as <name>.count and <name>.sum.ns.
func counters(nodes []*xdaq.Node) map[string]float64 {
	sum := map[string]float64{}
	for _, n := range nodes {
		for _, s := range metrics.Flatten(n.Exec.Metrics().Snapshot()) {
			if s.IsUint {
				sum[s.Name] += float64(s.Uint)
			} else {
				sum[s.Name] += float64(s.Int)
			}
		}
	}
	return sum
}

// procState is the runtime's and the kernel's account of this process.
type procState struct {
	mem  runtime.MemStats
	cpu  float64
	wall time.Time
}

func readProc() procState {
	var p procState
	runtime.ReadMemStats(&p.mem)
	p.cpu, p.wall = cpuSeconds(), time.Now()
	return p
}

// heapWatch samples HeapInuse until stop is closed and returns the peak.
func heapWatch(every time.Duration, stop <-chan struct{}, peak chan<- uint64) {
	var ms runtime.MemStats
	var max uint64
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		runtime.ReadMemStats(&ms)
		if ms.HeapInuse > max {
			max = ms.HeapInuse
		}
		select {
		case <-stop:
			peak <- max
			return
		case <-tick.C:
		}
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runProbes times, one after the other, the layers on the workload's
// path, at the workload's frame size.
func runProbes(spec workloadSpec, size int, dir string) (map[string]float64, error) {
	probes := []struct {
		name string
		on   bool
		run  func() (float64, error)
	}{
		{"pool.alloc_release_ns", true, func() (float64, error) { return probePool(size) }},
		{"queue.push_pop_ns", true, probeQueue},
		{"executive.local_call_us", true, func() (float64, error) { return probeLocalCall(size) }},
		{"i2o.encode_decode_ns", spec.TCP, func() (float64, error) { return probeCodec(size) }},
		{"storage.append_ns", spec.Store, func() (float64, error) {
			return probeAppend(dir, ebShapes[ebStore].rus*ebShapes[ebStore].fragSize)
		}},
	}
	layer := map[string]float64{}
	for _, p := range probes {
		if !p.on {
			continue
		}
		v, err := p.run()
		if err != nil {
			return nil, fmt.Errorf("%s: probe %s: %w", spec.Name, p.name, err)
		}
		layer[p.name] = v
	}
	return layer, nil
}

// runTraced reports the per-layer metrics.  It measures an untraced
// reference for 0.4 d, then the traced interval for 0.6 d with
// metrics.Enable(true) and the benchmark's spans on, reads the counters
// around it, and runs the probes for the layers on the workload's path.
func runTraced(spec workloadSpec, cfg config, d time.Duration, outDir string) (result, error) {
	res := result{Workload: spec.Name, Traced: true}
	spin := spinMops(250 * time.Millisecond)
	w := spec.new(cfg)
	defer w.close()
	if err := w.setup(); err != nil {
		return res, fmt.Errorf("%s: setup: %w", spec.Name, err)
	}
	ref, err := w.measure(d*4/10, nil)
	if err != nil {
		return res, fmt.Errorf("%s: reference interval: %w", spec.Name, err)
	}

	tr := newTracer()
	metrics.Enable(true)
	stop, peak := make(chan struct{}), make(chan uint64, 1)
	go heapWatch(time.Second, stop, peak)
	c0, p0 := counters(w.nodes()), readProc()
	m, err := w.measure(d*6/10, tr)
	p1, c1 := readProc(), counters(w.nodes())
	close(stop)
	heapPeak := <-peak
	metrics.Enable(false)
	if err != nil {
		return res, fmt.Errorf("%s: traced interval: %w", spec.Name, err)
	}
	res.Attempted, res.Failed = ref.attempted+m.attempted, ref.failed+m.failed
	delta := func(name string) float64 { return c1[name] - c0[name] }
	deltaSum := func(prefix, suffix string) float64 {
		var s float64
		for name := range c1 {
			if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
				s += delta(name)
			}
		}
		return s
	}

	layer, err := runProbes(spec, w.frameSize(), cfg.dir)
	if err != nil {
		return res, err
	}

	ops := float64(m.attempted)
	refP50, refP99 := latencies(ref.lat, ref.cuts)
	layer["executive.op_p99_us"] = refP99
	if spec.Op == "call" {
		// Derived, not measured: what is left of the round trip once the
		// same call on one node is taken out, per direction.
		layer["transport.hop_us"] = (refP50 - layer["executive.local_call_us"]) / 2
		if !spec.TCP {
			// Table 1 from outside: a loopback call allocates and releases
			// two blocks and schedules two frames.  What the probes do not
			// attribute is goroutine hand-off, which only tracing inside
			// the program can split.
			attributed := 2*layer["pool.alloc_release_ns"] + 2*layer["queue.push_pop_ns"]
			layer["executive.attributed_share"] = ratio(attributed/1e3, refP50)
		}
	}
	layer["queue.wait_us"] = ratio(deltaSum("exec.queue.wait.p", ".sum.ns"), deltaSum("exec.queue.wait.p", ".count")) / 1e3

	frames := delta("pt.tcp.sent")
	layer["tcp.delivery_p50_us"] = ref.extra["delivery_p50_us"]
	layer["tcp.frames_per_write"] = ratio(delta("pt.tcp.batch.frames"), delta("pt.tcp.batch.writes"))
	layer["tcp.rendezvous_share"] = ratio(delta("pt.tcp.rendezvous.sends"), frames)
	layer["tcp.credit_stalls_per_kframe"] = 1e3 * ratio(delta("pt.tcp.credits.stalls"), frames)
	layer["tcp.ring_full_per_kframe"] = 1e3 * ratio(delta("pt.tcp.ring.full"), frames)
	layer["tcp.send_retries_per_kframe"] = 1e3 * ratio(m.extra["send_retries"], frames)

	if spec.Op == "event" {
		layer["daq.frames_per_event"] = ratio(delta("exec.dispatched"), ops)
		layer["daq.ru_served_per_event"] = ratio(m.extra["ru_served"], ops)
		layer["daq.bu_stale_per_kevent"] = 1e3 * ratio(m.extra["bu_stale"], ops)
		layer["daq.bu_write_stalls_per_kevent"] = 1e3 * ratio(m.extra["bu_write_stalls"], ops)
		layer["storage.readback_mb_per_s"] = m.extra["readback_mb_per_s"]
		layer["storage.bytes_per_flush"] = ratio(m.extra["storage_bytes"], m.extra["storage_flushes"])
		layer["storage.stalls_per_kevent"] = 1e3 * ratio(m.extra["storage_stalls"], ops)
	}

	layer["proc.allocs_per_op"] = ratio(float64(p1.mem.Mallocs-p0.mem.Mallocs), ops)
	layer["proc.bytes_per_op"] = ratio(float64(p1.mem.TotalAlloc-p0.mem.TotalAlloc), ops)
	layer["proc.gc_pause_ms"] = float64(p1.mem.PauseTotalNs-p0.mem.PauseTotalNs) / 1e6
	layer["proc.heap_peak_mb"] = float64(heapPeak) / 1e6
	layer["proc.cpu_s_per_wall_s"] = ratio(p1.cpu-p0.cpu, p1.wall.Sub(p0.wall).Seconds())
	// Time per op with tracing on over time per op with it off.
	layer["trace.overhead"] = ratio(ref.opsPerS(), m.opsPerS())
	layer["host.spin_mops"] = spin

	for _, spec := range perLayer {
		res.Values = append(res.Values, value{spec.Name, layer[spec.Name], spec.Unit})
	}
	res.Spans = tr.stats()
	path, err := tr.write(outDir, spec.Name)
	if err != nil {
		return res, fmt.Errorf("%s: write trace: %w", spec.Name, err)
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("op=%s reference: ops=%d windows=%d; traced: ops=%d windows=%d spans=%d dropped=%d file=%s",
			spec.Op, ref.ops, len(ref.rates), m.ops, len(m.rates), len(tr.all()), tr.dropped(), path),
		fmt.Sprintf("probes at %d B; 1 op in %d sampled", w.frameSize(), sampleEvery))
	return res, nil
}
