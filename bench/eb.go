package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"xdaq"
	"xdaq/internal/daq"
	"xdaq/internal/storage"
)

// ebKind selects one of the two event-builder deployments.
type ebKind int

const (
	// ebTree is BenchmarkEventBuilder/topo=tree/rus=64: EVM on node 1,
	// 64 RUs packed 8 per node, one aggregator per 16 RUs on its first
	// child's node, the BU alone on the last node, no storage.
	ebTree ebKind = iota

	// ebStore is the full acquisition chain: EVM, one node of 8 RUs wired
	// flat into the BU, and two storage.sw nodes writing real segments.
	ebStore
)

// ebShape is the geometry of one deployment.
type ebShape struct {
	rus, fragSize int
	roundEvents   int // events per measured round
	warmEvents    int // events in the setup's warm-up round
	pipeline      int // blocks the BU keeps in flight
	writers       int // 0 = no storage
	storeWindow   int // events awaiting a write ack
}

var ebShapes = map[ebKind]ebShape{
	ebTree: {rus: 64, fragSize: 512, roundEvents: 30_000, warmEvents: 16_000, pipeline: 8},
	// Flat blocks hold one event, so a pipeline above the write window
	// lets the window, not the pipeline, bound the events in flight.
	ebStore: {rus: 8, fragSize: 1024, roundEvents: 25_000, warmEvents: 12_000, pipeline: 128, writers: 2, storeWindow: 32},
}

const (
	ebRUsPerNode = 8
	ebFanin      = 16 // aggregator children
	ebRangeSize  = 8  // events per block on the tree
	ebSlots      = 8  // shard slots on the tree
	ebArena      = 1 << 20

	// ebRoundTimeout bounds one round, many times over what any takes.
	ebRoundTimeout = 20 * time.Second

	// ebBurst is how many consecutive events one latency sample spans:
	// the events the tree keeps in flight (pipeline 8 x block size 8).
	// With the pipeline full that is the time an event spends in the
	// builder.
	ebBurst = 64
)

// eb runs event-building rounds: EVM.Reset, BU.Start, BU.Wait, check.
// The loop is closed by the builder itself, which keeps a pipeline of block
// requests in flight and asks for the next only as one completes.
type eb struct {
	cfg    config
	kind   ebKind
	shape  ebShape
	nodes_ []*xdaq.Node
	evm    *daq.EVM
	bu     *daq.BU
	rus    []*daq.RU
	sws    []*storage.SW
	dir    string
	round  uint64

	// Filled by the BU's OnEvent hook (under the BU's run lock) and read
	// between rounds.
	seen   []uint64 // bitset of event ids built this round
	roundN uint64   // events in this round: ids 1..roundN
	dups   uint64   // events built twice, or outside the round's range
	builtN uint64
	base   time.Time
	lastAt time.Duration
	lat    []int32 // ns per ebBurst consecutive events

	// extra accumulates what measure reports as measured.extra.
	extra map[string]float64
}

func newEB(cfg config, kind ebKind) workload {
	shape := ebShapes[kind]
	shape.roundEvents = cfg.scaled(shape.roundEvents, 4*ebBurst)
	shape.warmEvents = cfg.scaled(shape.warmEvents, 4*ebBurst)
	return &eb{cfg: cfg, kind: kind, shape: shape}
}

func (w *eb) nodes() []*xdaq.Node { return w.nodes_ }
func (w *eb) frameSize() int      { return w.shape.fragSize }

func (w *eb) close() {
	w.closeWriters()
	closeNodes(w.nodes_)
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}

func (w *eb) closeWriters() error {
	var first error
	for _, sw := range w.sws {
		if wr := sw.Writer(); wr != nil {
			if err := wr.Close(); err != nil && !errors.Is(err, storage.ErrClosed) && first == nil {
				first = err
			}
		}
	}
	return first
}

func (w *eb) setup() error {
	sh := w.shape
	ruNodes := (sh.rus + ebRUsPerNode - 1) / ebRUsPerNode
	buNode := 2 + ruNodes
	nodes, err := newNodes(buNode+sh.writers, 10*time.Second)
	if err != nil {
		return err
	}
	w.nodes_ = nodes
	if err := xdaq.Connect(xdaq.Loopback(), xdaq.Nodes(nodes...)); err != nil {
		return err
	}
	node := func(id int) *xdaq.Node { return nodes[id-1] }
	ruNode := func(ru int) *xdaq.Node { return node(2 + ru/ebRUsPerNode) }

	w.evm = daq.NewEVM(0)
	if w.kind == ebTree {
		w.evm.SetSharding(ebSlots, ebRangeSize)
	}
	if _, err := node(1).Plug(w.evm.Device()); err != nil {
		return err
	}
	rus := make([]*daq.RU, sh.rus)
	w.rus = rus
	for i := range rus {
		rus[i] = daq.NewRU(i, sh.fragSize)
		if w.kind == ebTree {
			evmTID, err := ruNode(i).Discover(1, daq.EVMClass, 0)
			if err != nil {
				return err
			}
			rus[i].SetEVM(evmTID)
		}
		if _, err := ruNode(i).Plug(rus[i].Device()); err != nil {
			return err
		}
	}

	w.bu = daq.NewBU(0)
	bu := node(buNode)
	if _, err := bu.Plug(w.bu.Device()); err != nil {
		return err
	}
	evmFromBU, err := bu.Discover(1, daq.EVMClass, 0)
	if err != nil {
		return err
	}
	if w.kind == ebTree {
		roots, err := w.plugAggregators(rus, ruNode, bu)
		if err != nil {
			return err
		}
		w.bu.ConfigureTree(evmFromBU, roots, sh.rus)
	} else {
		ruTIDs := make([]xdaq.TID, sh.rus)
		for i := range ruTIDs {
			if ruTIDs[i], err = bu.Discover(ruNode(i).Exec.Node(), daq.RUClass, i); err != nil {
				return err
			}
		}
		w.bu.Configure(evmFromBU, ruTIDs)
	}

	if sh.writers > 0 {
		if err := os.MkdirAll(w.cfg.dir, 0o755); err != nil {
			return err
		}
		if w.dir, err = os.MkdirTemp(w.cfg.dir, "eb-store-"); err != nil {
			return err
		}
		swTIDs := make([]xdaq.TID, sh.writers)
		for i := range swTIDs {
			n := node(buNode + 1 + i)
			sw := storage.NewSW(i, n.Exec.Allocator())
			if _, err := n.Plug(sw.Device()); err != nil {
				return err
			}
			w.sws = append(w.sws, sw)
			if swTIDs[i], err = bu.Discover(n.Exec.Node(), storage.ClassSW, i); err != nil {
				return err
			}
		}
		w.bu.SetStorage(swTIDs, sh.storeWindow)
	}

	w.base = time.Now()
	w.extra = map[string]float64{}
	w.seen = make([]uint64, max(sh.roundEvents, sh.warmEvents)/64+2)
	w.bu.OnEvent = w.onEvent
	// The warm-up is a whole, checked round: it registers the builder,
	// spreads the shard map and grows every pool.
	_, failed, err := w.runRound(nil, sh.warmEvents)
	if err == nil && failed != 0 {
		err = fmt.Errorf("warm-up round: %d of %d events failed their checks", failed, sh.warmEvents)
	}
	return err
}

// plugAggregators puts one aggregator per ebFanin readout units on its
// first child's node and returns the roots as the builder sees them.
func (w *eb) plugAggregators(rus []*daq.RU, ruNode func(int) *xdaq.Node, bu *xdaq.Node) ([]xdaq.TID, error) {
	nAgg := (len(rus) + ebFanin - 1) / ebFanin
	roots := make([]xdaq.TID, nAgg)
	for a := range roots {
		first := a * ebFanin
		host := ruNode(first)
		var children []daq.AggChild
		for i := first; i < first+ebFanin && i < len(rus); i++ {
			tid := rus[i].Device().TID()
			if ruNode(i) != host {
				var err error
				if tid, err = host.Discover(ruNode(i).Exec.Node(), daq.RUClass, i); err != nil {
					return nil, err
				}
			}
			children = append(children, daq.AggChild{TID: tid})
		}
		evmTID, err := host.Discover(1, daq.EVMClass, 0)
		if err != nil {
			return nil, err
		}
		agg := daq.NewAggregator(a)
		agg.Configure(evmTID, children)
		if _, err := host.Plug(agg.Device()); err != nil {
			return nil, err
		}
		if roots[a], err = bu.Discover(host.Exec.Node(), daq.AggClass, a); err != nil {
			return nil, err
		}
	}
	return roots, nil
}

// onEvent is the BU's per-event hook: mark the event built, and every
// ebBurst events take one latency sample.  It runs under the BU's lock,
// so it stays short.
func (w *eb) onEvent(event uint64, _ int) {
	if event == 0 || event > w.roundN || w.seen[event/64]&(1<<(event%64)) != 0 {
		w.dups++
	} else {
		w.seen[event/64] |= 1 << (event % 64)
	}
	w.builtN++
	if w.builtN%ebBurst == 0 {
		now := time.Since(w.base)
		if len(w.lat) < cap(w.lat) {
			w.lat = append(w.lat, int32(now-w.lastAt))
		}
		w.lastAt = now
	}
}

// runRound builds and checks one round of events; it returns the
// time from BU.Start to BU.Wait and the number of failed events.  On
// eb-store-8ru it then reads the round back from disk, checks it and
// deletes it.
func (w *eb) runRound(rec *recorder, events int) (time.Duration, uint64, error) {
	n := uint64(events)
	op := w.round
	w.round++
	root := rec.begin("round", op, 0)
	defer rec.end(root)

	sp := rec.begin("start", op, root)
	clear(w.seen)
	w.dups, w.builtN, w.roundN = 0, 0, n
	if err := w.openWriters(); err != nil {
		return 0, 0, err
	}
	w.evm.Reset(n)
	w.lastAt = time.Since(w.base)
	t0 := time.Now()
	done, err := w.bu.Start(0, w.shape.pipeline)
	if err != nil {
		return 0, 0, err
	}
	sp = rec.step(sp, "wait", op, root)
	select {
	case <-done:
	case <-time.After(ebRoundTimeout):
		// A round that wedges must fail the run, not hang it.
		w.bu.Kill()
		st := w.bu.Stats()
		return 0, 0, fmt.Errorf("round of %d events not finished after %v: bu built=%d stored=%d stale=%d write_stalls=%d, evm allocated=%d built=%d",
			n, ebRoundTimeout, st.Built, st.Stored, st.StaleRetries, st.WriteStalls, w.evm.Allocated(), w.evm.Built())
	}
	stats, err := w.bu.Wait()
	took := time.Since(t0)
	rec.end(sp)
	if err != nil {
		return 0, 0, err
	}

	w.extra["bu_stale"] += float64(stats.StaleRetries)
	w.extra["bu_write_stalls"] += float64(stats.WriteStalls)
	for _, sw := range w.sws {
		st := sw.Stats()
		w.extra["storage_bytes"] += float64(st.Bytes)
		w.extra["storage_flushes"] += float64(st.Flushes)
		w.extra["storage_stalls"] += float64(st.Stalls)
	}

	// Every event built exactly once, by the builder's count, the
	// EVM's count and the per-event hook; no corrupt fragment.
	failed := w.dups + stats.Corrupt + w.evm.Duplicates()
	for _, got := range []uint64{stats.Built, w.evm.Built(), w.builtN - w.dups} {
		if got < n {
			failed = max(failed, n-got)
		}
	}
	if w.shape.writers > 0 {
		if stats.Stored < n {
			failed = max(failed, n-stats.Stored)
		}
		bad, err := w.readBack(rec, op, root)
		if err != nil {
			return 0, 0, err
		}
		failed = max(failed, bad)
	}
	return took, min(failed, n), nil
}

// openWriters gives every storage device a fresh segment for the round.
func (w *eb) openWriters() error {
	for i, sw := range w.sws {
		wr, err := storage.Open(storage.Options{
			Dir:       w.dir,
			Instance:  i,
			ArenaSize: ebArena,
			IndexHint: int(w.roundN)/len(w.sws) + 1,
		})
		if err != nil {
			return err
		}
		sw.Attach(wr)
	}
	return nil
}

// readBack closes the round's segments, loads them, and checks that the
// store holds every event exactly once, each the right length, with
// every fragment intact (the reader has already verified each record's
// CRC).  It returns the number of bad events and deletes the segments.
func (w *eb) readBack(rec *recorder, op uint64, root uint32) (uint64, error) {
	sp := rec.begin("close", op, root)
	if err := w.closeWriters(); err != nil {
		return 0, err
	}
	sp = rec.step(sp, "readback", op, root)
	t0 := time.Now()
	recs, err := storage.LoadSet(w.dir)
	took := time.Since(t0)
	if err != nil {
		rec.end(sp)
		return 0, err
	}
	sp = rec.step(sp, "verify", op, root)
	defer rec.end(sp)

	n, sh := w.roundN, w.shape
	var bad, bytes uint64
	want, got := make([]byte, sh.rus), make([]byte, sh.rus)
	for i, r := range recs {
		bytes += uint64(len(r.Data))
		// LoadSet sorts by event id, so record i must be event i+1.
		ok := r.Event == uint64(i+1) && len(r.Data) == sh.rus*sh.fragSize
		for f := 0; ok && f < sh.rus; f++ {
			frag := r.Data[f*sh.fragSize : (f+1)*sh.fragSize]
			got[f] = frag[0]
			want[f] = daq.FragmentFill(f, r.Event)
			for _, b := range frag {
				if b != frag[0] {
					ok = false
					break
				}
			}
		}
		if ok {
			// Fragments are stored in arrival order: compare as sets.
			slices.Sort(got)
			slices.Sort(want)
			ok = slices.Equal(got, want)
		}
		if !ok {
			bad++
		}
	}
	if uint64(len(recs)) < n {
		bad += n - uint64(len(recs))
	}
	w.extra["readback_mb_per_s"] = float64(bytes) / 1e6 / took.Seconds()
	matches, err := filepath.Glob(filepath.Join(w.dir, "seg-*.xseg"))
	if err != nil {
		return bad, err
	}
	for _, path := range matches {
		if err := os.Remove(path); err != nil {
			return bad, err
		}
	}
	return bad, nil
}

func (w *eb) measure(d time.Duration, tr *tracer) (measured, error) {
	var rec *recorder
	if tr != nil {
		rec = tr.recorder()
	}
	var res measured
	w.lat = make([]int32, 0, 1<<18)
	w.extra = map[string]float64{}
	var servedBefore float64
	for _, ru := range w.rus {
		servedBefore += float64(ru.Served())
	}
	n := uint64(w.shape.roundEvents)
	for start := time.Now(); time.Since(start) < d; {
		took, failed, err := w.runRound(rec, w.shape.roundEvents)
		if err != nil {
			return res, err
		}
		res.attempted += n
		res.failed += failed
		res.rates = append(res.rates, float64(n)/took.Seconds())
		res.cuts = append(res.cuts, len(w.lat))
	}
	res.ops = res.attempted
	res.lat = w.lat
	for _, ru := range w.rus {
		w.extra["ru_served"] += float64(ru.Served())
	}
	w.extra["ru_served"] -= servedBefore
	res.extra = w.extra
	return res, nil
}
