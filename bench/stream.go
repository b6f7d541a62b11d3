package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"xdaq"
)

// stream is the one-way throughput workload: streamSenders goroutines
// send numbered frames to a sink device on the other node over TCP, each
// keeping at most window frames unacknowledged.  The acknowledgement is
// the sink's own per-sender counter, which the sender reads (all nodes
// share this process), so the loop is closed without reply frames.
type stream struct {
	cfg    config
	size   int
	window uint64 // unacknowledged frames per sender
	warm   int    // frames per sender per setup
	nodes_ []*xdaq.Node
	target xdaq.TID
	sink   *sink

	// frames[s] is sender s's frame: a 20-byte header rewritten for every
	// frame, then seeded bytes that stay.
	frames [streamSenders][]byte
	sent   [streamSenders]uint64 // next sequence number, owned by sender s
}

const (
	streamSenders = 2 // = nproc on the reference host
	streamXFunc   = 1
	streamHeader  = 20 // sender u32 | seq u64 | send stamp ns i64
	stampEvery    = 32 // every 32nd frame carries its send time

	// streamPause is how long a sender sleeps before it looks at the
	// window, or retries a refused send, again.
	streamPause = 50 * time.Microsecond
)

// sink checks and counts what arrives.  Its handler runs on the
// receiving node's one dispatch goroutine; the senders read delivered,
// the measuring goroutine reads the rest after the senders have stopped
// and the stream has drained.
type sink struct {
	size      int
	base      time.Time
	patterns  [streamSenders][]byte
	next      [streamSenders]uint64
	delivered [streamSenders]atomic.Uint64
	bad       atomic.Uint64 // duplicated, reordered, skipped or corrupt frames

	// A window is burst frames, the two senders' windows together.  The
	// time the sink takes to receive one is, by Little's law, the time a
	// frame spends in flight when the windows are full.
	burst     uint64
	count     uint64
	lastBurst time.Duration

	recording atomic.Bool
	mu        sync.Mutex // guards lat and delivery between handler and measure
	lat       []int32    // ns per burst frames
	delivery  []int32    // ns from Send to the handler, stamped frames only
}

func (s *sink) handle(_ *xdaq.Context, m *xdaq.Message) error {
	p := m.Payload
	if len(p) != s.size {
		s.bad.Add(1)
		return nil
	}
	sender := binary.LittleEndian.Uint32(p)
	if sender >= streamSenders {
		s.bad.Add(1)
		return nil
	}
	seq := binary.LittleEndian.Uint64(p[4:])
	if seq != s.next[sender] || !bytes.Equal(p[streamHeader:], s.patterns[sender]) {
		s.bad.Add(1)
	}
	if seq >= s.next[sender] {
		s.next[sender] = seq + 1
	}
	stamp := int64(binary.LittleEndian.Uint64(p[12:]))
	s.count++
	if endOfBurst := s.count%s.burst == 0; endOfBurst || stamp != 0 {
		now := time.Since(s.base)
		if s.recording.Load() {
			s.mu.Lock()
			if endOfBurst && len(s.lat) < cap(s.lat) {
				s.lat = append(s.lat, int32(now-s.lastBurst))
			}
			if stamp != 0 && len(s.delivery) < cap(s.delivery) {
				s.delivery = append(s.delivery, int32(int64(now)-stamp))
			}
			s.mu.Unlock()
		}
		if endOfBurst {
			s.lastBurst = now
		}
	}
	s.delivered[sender].Add(1)
	return nil
}

func (s *sink) total() uint64 {
	var n uint64
	for i := range s.delivered {
		n += s.delivered[i].Load()
	}
	return n
}

func newStream(cfg config, size int, window uint64, warm int) workload {
	return &stream{cfg: cfg, size: size, window: window, warm: warm}
}

func (w *stream) nodes() []*xdaq.Node { return w.nodes_ }
func (w *stream) frameSize() int      { return w.size }
func (w *stream) close()              { closeNodes(w.nodes_) }

func (w *stream) setup() error {
	nodes, err := newNodes(2, 5*time.Second)
	if err != nil {
		return err
	}
	w.nodes_ = nodes
	if err := xdaq.Connect(xdaq.TCP(), xdaq.Nodes(nodes...)); err != nil {
		return err
	}
	w.sink = &sink{size: w.size, base: time.Now(), burst: streamSenders * w.window}
	for s := 0; s < streamSenders; s++ {
		w.frames[s] = make([]byte, w.size)
		binary.LittleEndian.PutUint32(w.frames[s], uint32(s))
		w.sink.patterns[s] = seededBytes(w.cfg.seed, s, w.size-streamHeader)
		copy(w.frames[s][streamHeader:], w.sink.patterns[s])
	}
	dev := xdaq.NewDevice("sink", 0)
	dev.Bind(streamXFunc, w.sink.handle)
	if _, err := nodes[1].Plug(dev); err != nil {
		return err
	}
	if w.target, err = nodes[0].Discover(2, "sink", 0); err != nil {
		return err
	}
	warm := uint64(w.cfg.scaled(w.warm, 1000))
	w.run(nil, func() {}, func(s int) bool { return w.sent[s] < warm })
	return nil
}

// sender is one load-generator goroutine's tally.
type sender struct {
	retries uint64 // resends after ErrRingFull / ErrNoCredit
	failed  uint64 // frames Send refused for good
}

// run starts the senders, calls during (on the calling goroutine) while
// they stream, and returns once every frame sent has reached the sink.
// more(s) says whether sender s should send another frame; during may
// end the run by making it return false.  A frame that has not arrived
// 5 s after the senders stopped is given up as lost.
func (w *stream) run(tr *tracer, during func(), more func(s int) bool) [streamSenders]sender {
	var tallies [streamSenders]sender
	var wg sync.WaitGroup
	for s := 0; s < streamSenders; s++ {
		var rec *recorder
		if tr != nil {
			rec = tr.recorder()
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for more(s) {
				w.sendOne(s, rec, &tallies[s])
			}
		}(s)
	}
	during()
	wg.Wait()
	var sent uint64
	for s := range w.sent {
		sent += w.sent[s] - tallies[s].failed
	}
	deadline := time.Now().Add(5 * time.Second)
	for w.sink.total() < sent {
		if time.Now().After(deadline) {
			break // the caller counts the missing frames
		}
		time.Sleep(100 * time.Microsecond)
	}
	return tallies
}

// sendOne sends sender s's next frame, first waiting for the window.
func (w *stream) sendOne(s int, rec *recorder, t *sender) {
	a := w.nodes_[0]
	seq := w.sent[s]
	frame := w.frames[s]
	traced := rec.sampled(seq)
	var root, sp uint32
	if traced {
		root = rec.begin("op", seq, 0)
		sp = rec.begin("window_wait", seq, root)
	}
	if seq-w.sink.delivered[s].Load() >= w.window {
		// Window full: wait until half of it has been delivered, then
		// refill it in one burst.  The wait sleeps: a sender that spins on
		// runtime.Gosched keeps both Ps busy, the runtime then polls the
		// network only from sysmon every 10 ms, and the receiving side of
		// the program under test stalls for that long (measured: half the
		// throughput at 16 KiB).
		for seq-w.sink.delivered[s].Load() > w.window/2 {
			time.Sleep(streamPause)
		}
	}
	binary.LittleEndian.PutUint64(frame[4:], seq)
	stamp := int64(0)
	if seq%stampEvery == 0 {
		stamp = int64(time.Since(w.sink.base))
	}
	binary.LittleEndian.PutUint64(frame[12:], uint64(stamp))
	for {
		var err error
		if traced {
			sp = rec.step(sp, "alloc", seq, root)
			var m *xdaq.Message
			if m, err = a.Exec.AllocMessage(len(frame)); err == nil {
				sp = rec.step(sp, "fill", seq, root)
				copy(m.Payload, frame)
				m.Target = w.target
				m.Initiator = xdaq.TIDExecutive
				m.XFunction = streamXFunc
				sp = rec.step(sp, "send", seq, root)
				err = a.Exec.Send(m)
			}
		} else {
			err = a.Send(w.target, streamXFunc, frame)
		}
		if err == nil {
			break
		}
		if !errors.Is(err, xdaq.ErrQueueFull) {
			t.failed++
			break
		}
		// ErrRingFull and ErrNoCredit are backpressure, not failures:
		// let the writer run and send the same frame again.
		t.retries++
		if traced {
			sp = rec.step(sp, "retry_wait", seq, root)
		}
		time.Sleep(streamPause)
	}
	if traced {
		rec.end(sp)
		rec.end(root)
	}
	w.sent[s]++
}

// streamRamp is how long the senders run before the first counted
// window opens.
const streamRamp = 250 * time.Millisecond

func (w *stream) measure(d time.Duration, tr *tracer) (measured, error) {
	var res measured
	sk := w.sink
	sk.lat = make([]int32, 0, 1<<16)
	sk.delivery = make([]int32, 0, 1<<20)
	var stop atomic.Bool
	var sentBefore [streamSenders]uint64
	copy(sentBefore[:], w.sent[:])
	deliveredBefore, badBefore := sk.total(), sk.bad.Load()

	tallies := w.run(tr, func() {
		// The measuring goroutine is the sampler, not a load generator:
		// it sleeps a window, then reads the sink's counter and the clock.
		// The senders are still streaming when the last window closes.
		window := d / windowsPerRig
		time.Sleep(streamRamp)
		sk.recording.Store(true)
		lastT, lastN := time.Now(), sk.total()
		for i := 0; i < windowsPerRig; i++ {
			time.Sleep(window)
			now, n := time.Now(), sk.total()
			res.rates = append(res.rates, float64(n-lastN)/now.Sub(lastT).Seconds())
			res.ops += n - lastN
			sk.mu.Lock()
			res.cuts = append(res.cuts, len(sk.lat))
			sk.mu.Unlock()
			lastT, lastN = now, n
		}
		sk.recording.Store(false)
		stop.Store(true)
	}, func(int) bool { return !stop.Load() })
	var retries uint64
	for s := range tallies {
		res.attempted += w.sent[s] - sentBefore[s]
		retries += tallies[s].retries
	}
	slices.Sort(sk.delivery)
	res.extra = map[string]float64{
		"send_retries":    float64(retries),
		"delivery_p50_us": quantile(sk.delivery, 0.50) / 1e3,
	}
	// A frame Send refused for good or that never arrived is a failure,
	// as is each one the sink found duplicated, out of order or corrupt.
	res.failed = res.attempted - (sk.total() - deliveredBefore) + sk.bad.Load() - badBefore
	res.lat = sk.lat[:res.cuts[len(res.cuts)-1]]
	return res, nil
}
