package tcp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"xdaq/internal/i2o"
	"xdaq/internal/metrics"
	"xdaq/internal/pool"
	"xdaq/internal/pta"
	"xdaq/internal/queue"
	"xdaq/internal/sgl"
	"xdaq/internal/transport/faults"
)

// rawPair builds two bare transports (no executive, no agent) with the
// sender configured by cfg.  The receiver listens and delivers into fn.
func rawPair(t testing.TB, cfg Config, fn pta.Deliver) (*Transport, *Transport) {
	t.Helper()
	recv, err := New(2, pool.NewTable(0), Config{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { recv.Stop() })
	if fn != nil {
		if err := recv.Start(fn); err != nil {
			t.Fatal(err)
		}
	}
	if cfg.Peers == nil {
		cfg.Peers = map[i2o.NodeID]string{}
	}
	cfg.Peers[2] = recv.Addr()
	send, err := New(1, pool.NewTable(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { send.Stop() })
	return send, recv
}

// TestConcurrentDialDedup is the regression test for the duplicate-dial
// race: concurrent senders to a not-yet-connected peer must share a single
// in-flight dial instead of each opening (and then discarding) its own
// connection.
//
// The frames are rendezvous-sized, so with the ring idle every sender runs
// put — and with it connTo — on its own goroutine.
func TestConcurrentDialDedup(t *testing.T) {
	reg := metrics.NewRegistry()
	send, _ := rawPair(t, Config{Metrics: reg}, nil)

	const senders = 16
	var (
		start = make(chan struct{})
		wg    sync.WaitGroup
		errs  = make(chan error, senders)
	)
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			errs <- send.Send(2, &i2o.Message{
				Target: 1, Initiator: i2o.TIDExecutive,
				Function: i2o.FuncPrivate, Org: i2o.OrgXDAQ, XFunction: 1,
				Payload: make([]byte, 4*DefaultThreshold),
			})
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	if n := reg.Counter(PTName + ".dials").Value(); n != 1 {
		t.Fatalf("%d dials for %d concurrent senders, want 1", n, senders)
	}
	if n := reg.Counter(PTName + ".rendezvous.sends").Value(); n == 0 {
		t.Fatal("no sender took the rendezvous lane; the dial race was not exercised")
	}
}

// TestSGLPayloadOverTCP sends a chained payload and checks the receiver
// reassembles the exact byte sequence: the writer must walk the segments
// onto the wire in order, without flattening.
func TestSGLPayloadOverTCP(t *testing.T) {
	var (
		mu  sync.Mutex
		got [][]byte
	)
	send, _ := rawPair(t, Config{}, func(_ i2o.NodeID, m *i2o.Message) error {
		mu.Lock()
		got = append(got, append([]byte(nil), m.Payload...))
		mu.Unlock()
		m.Release()
		return nil
	})

	alloc := pool.NewTable(0)
	data := make([]byte, 10_000)
	for i := range data {
		data[i] = byte(i * 31)
	}
	l, err := sgl.FromBytes(alloc, data, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if l.Segments() < 2 {
		t.Fatalf("list has %d segments; the test needs a real chain", l.Segments())
	}
	m := &i2o.Message{
		Target: 1, Initiator: i2o.TIDExecutive,
		Function: i2o.FuncPrivate, Org: i2o.OrgXDAQ, XFunction: 1,
	}
	m.AttachList(l)
	if err := send.Send(2, m); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("frame never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	if !bytes.Equal(got[0], data) {
		t.Fatalf("payload mismatch: %d bytes back, want %d", len(got[0]), len(data))
	}
	// The writer recycled the frame, releasing every chained block.
	deadline = time.Now().Add(time.Second)
	for alloc.Stats().InUse != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("sender leaked %d blocks", alloc.Stats().InUse)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRingBackpressureSignalsTransient stalls the writer with wire delays
// until the tiny ring overflows, then checks the refusal carries both
// public sentinels: queue.ErrFull (the ErrQueueFull contract) and
// pta.ErrTransient (the retry policy re-attempts instead of failing).
func TestRingBackpressureSignalsTransient(t *testing.T) {
	send, _ := rawPair(t, Config{RingDepth: 2}, nil)
	send.SetWireFaults(faults.New(1).Add(faults.Rule{Op: faults.Delay, Nth: 1, Delay: 20 * time.Millisecond}))

	var full error
	for i := 0; i < 200 && full == nil; i++ {
		err := send.Send(2, &i2o.Message{Target: 1, Function: i2o.UtilNOP})
		if err != nil {
			full = err
		}
	}
	if full == nil {
		t.Fatal("200 sends onto a depth-2 ring behind a stalled writer never hit backpressure")
	}
	if !errors.Is(full, queue.ErrFull) {
		t.Fatalf("%v does not wrap queue.ErrFull", full)
	}
	if !errors.Is(full, pta.ErrTransient) {
		t.Fatalf("%v does not wrap pta.ErrTransient", full)
	}
}

// TestReconnectUnderConcurrentSenders severs the connection repeatedly
// while four senders stream sequence-numbered frames, and checks every
// frame arrives exactly once, in per-sender order: the writer's
// redial-and-resend must neither drop nor duplicate nor reorder.
func TestReconnectUnderConcurrentSenders(t *testing.T) {
	const (
		senders = 4
		frames  = 200
	)
	var (
		mu   sync.Mutex
		seqs [senders][]uint32
	)
	reg := metrics.NewRegistry()
	send, _ := rawPair(t, Config{Metrics: reg, RingDepth: 64}, func(_ i2o.NodeID, m *i2o.Message) error {
		if len(m.Payload) == 5 {
			mu.Lock()
			s := m.Payload[0]
			seqs[s] = append(seqs[s], binary.LittleEndian.Uint32(m.Payload[1:]))
			mu.Unlock()
		}
		m.Release()
		return nil
	})
	// Sever the connection on every second batch, three times, once
	// traffic is established.  The fault fires before the vectored write,
	// so the queued frames stay on the ring and ride the redial.
	send.SetWireFaults(faults.New(1).Add(faults.Rule{
		Op: faults.Error, Nth: 2, After: 2, Limit: 3,
	}))

	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 1; i <= frames; i++ {
				p := make([]byte, 5)
				p[0] = byte(s)
				binary.LittleEndian.PutUint32(p[1:], uint32(i))
				m := &i2o.Message{
					Target: 1, Initiator: i2o.TIDExecutive,
					Function: i2o.FuncPrivate, Org: i2o.OrgXDAQ, XFunction: 1,
					Payload: p,
				}
				for {
					err := send.Send(2, m)
					if err == nil {
						break
					}
					if !errors.Is(err, queue.ErrFull) {
						t.Errorf("sender %d frame %d: %v", s, i, err)
						return
					}
					runtime.Gosched() // backpressure: ring full, writer busy
				}
			}
		}(s)
	}
	wg.Wait()

	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		total := 0
		for s := range seqs {
			total += len(seqs[s])
		}
		mu.Unlock()
		if total == senders*frames {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("received %d of %d frames", total, senders*frames)
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for s := 0; s < senders; s++ {
		if len(seqs[s]) != frames {
			t.Fatalf("sender %d: %d frames, want %d", s, len(seqs[s]), frames)
		}
		for i, got := range seqs[s] {
			if got != uint32(i+1) {
				t.Fatalf("sender %d position %d: seq %d (duplicated, lost or reordered)", s, i, got)
			}
		}
	}
	if n := reg.Counter(PTName + ".dials").Value(); n < 2 {
		t.Fatalf("dials = %d; the connection was never re-established", n)
	}
	if n := reg.Counter(PTName + ".connDrops").Value(); n < 1 {
		t.Fatalf("connDrops = %d; the faults never severed the connection", n)
	}
	if n := reg.Counter(PTName + ".sendErrors").Value(); n != 0 {
		t.Fatalf("sendErrors = %d; the writer gave up on frames", n)
	}
	writes := reg.Counter(PTName + ".batch.writes").Value()
	batched := reg.Counter(PTName + ".batch.frames").Value()
	if writes == 0 || batched != senders*frames {
		t.Fatalf("batch.writes=%d batch.frames=%d, want frames=%d", writes, batched, senders*frames)
	}
}

// TestEagerRendezvousBoundaryOrder interleaves frames straddling a pinned
// threshold from several senders: small frames ride the ring, large ones
// the bulk lane, and the ring-idle gate must still deliver every sender's
// frames in its own send order.
func TestEagerRendezvousBoundaryOrder(t *testing.T) {
	const (
		senders = 4
		frames  = 300
		thr     = 512
	)
	var (
		mu   sync.Mutex
		seqs [senders][]uint32
	)
	reg := metrics.NewRegistry()
	send, _ := rawPair(t, Config{Metrics: reg}, func(_ i2o.NodeID, m *i2o.Message) error {
		mu.Lock()
		s := m.Payload[0]
		seqs[s] = append(seqs[s], binary.LittleEndian.Uint32(m.Payload[1:]))
		mu.Unlock()
		m.Release()
		return nil
	})
	send.SetThreshold(thr)

	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 1; i <= frames; i++ {
				// Alternate strictly below and above the threshold, with
				// one length that lands exactly on it (wire size thr means
				// rendezvous-eligible by the >= rule).
				n := 5
				switch i % 3 {
				case 1:
					n = thr - i2o.PrivateHeaderSize // exactly at the boundary
				case 2:
					n = thr + 1024 // comfortably rendezvous
				}
				p := make([]byte, n)
				p[0] = byte(s)
				binary.LittleEndian.PutUint32(p[1:], uint32(i))
				m := &i2o.Message{
					Target: 1, Initiator: i2o.TIDExecutive,
					Function: i2o.FuncPrivate, Org: i2o.OrgXDAQ, XFunction: 1,
					Payload: p,
				}
				for {
					err := send.Send(2, m)
					if err == nil {
						break
					}
					if !errors.Is(err, queue.ErrFull) {
						t.Errorf("sender %d frame %d: %v", s, i, err)
						return
					}
					runtime.Gosched()
				}
			}
		}(s)
	}
	wg.Wait()

	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		total := 0
		for s := range seqs {
			total += len(seqs[s])
		}
		mu.Unlock()
		if total == senders*frames {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("received %d of %d frames", total, senders*frames)
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for s := 0; s < senders; s++ {
		for i, got := range seqs[s] {
			if got != uint32(i+1) {
				t.Fatalf("sender %d position %d: seq %d (lost, duplicated or reordered across lanes)", s, i, got)
			}
		}
	}
	// Lane accounting: every delivered frame was written exactly once, by
	// exactly one lane.  Fallback counts per Send attempt (a frame can
	// fall back, hit a full ring, and fall back again on retry), so the
	// eligible 2/3 of the traffic is a floor for sends+fallbacks, not an
	// exact match.  Delivery can overtake the sender's own bookkeeping, so
	// wait for the writer to finish its last batch (the ring goes idle
	// after the lane counters are updated) before reading them.
	send.mu.Lock()
	q := send.peers[2].q
	send.mu.Unlock()
	for deadline := time.Now().Add(5 * time.Second); !q.Idle(); {
		if time.Now().After(deadline) {
			t.Fatal("send ring never went idle")
		}
		time.Sleep(time.Millisecond)
	}
	var (
		rvSends = reg.Counter(PTName + ".rendezvous.sends").Value()
		rvFall  = reg.Counter(PTName + ".rendezvous.fallback").Value()
		eager   = reg.Counter(PTName + ".batch.frames").Value()
	)
	const eligible = senders * frames * 2 / 3
	if rvSends+rvFall < eligible {
		t.Fatalf("rendezvous.sends=%d + fallback=%d < %d eligible frames", rvSends, rvFall, eligible)
	}
	if eager+rvSends != uint64(senders*frames) {
		t.Fatalf("batch.frames=%d + rendezvous.sends=%d != %d frames delivered", eager, rvSends, senders*frames)
	}
	mu.Unlock()
	// With the ring quiesced, a large frame must take the direct lane.
	m := &i2o.Message{
		Target: 1, Initiator: i2o.TIDExecutive,
		Function: i2o.FuncPrivate, Org: i2o.OrgXDAQ, XFunction: 1,
		Payload: make([]byte, 4096),
	}
	if err := send.Send(2, m); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if got := reg.Counter(PTName + ".rendezvous.sends").Value(); got != rvSends+1 {
		t.Fatalf("idle-ring bulk send did not take the rendezvous lane (sends %d -> %d)", rvSends, got)
	}
}

// TestCreditExhaustionSignalsTransient grants a tiny window, has the
// receiver hold every delivered frame, and checks the refusal carries the
// backpressure sentinels — then releases the frames and checks the window
// refills (the receiver's per-frame credit return reaches the sender).
func TestCreditExhaustionSignalsTransient(t *testing.T) {
	const window = 4
	var (
		mu   sync.Mutex
		held []*i2o.Message
	)
	recv, err := New(2, pool.NewTable(0), Config{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	recv.grant, recv.flushAt = window, 1 // before any handshake reads them
	t.Cleanup(func() { recv.Stop() })
	if err := recv.Start(func(_ i2o.NodeID, m *i2o.Message) error {
		mu.Lock()
		held = append(held, m)
		mu.Unlock()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	send, err := New(1, pool.NewTable(0), Config{Peers: map[i2o.NodeID]string{2: recv.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { send.Stop() })

	frame := func() *i2o.Message {
		return &i2o.Message{
			Target: 1, Initiator: i2o.TIDExecutive,
			Function: i2o.FuncPrivate, Org: i2o.OrgXDAQ, XFunction: 1,
			Payload: []byte("credit"),
		}
	}
	// The window is consumed at enqueue time, so at most `window` sends can
	// succeed once the handshake's grant replaces the optimistic default.
	var stall error
	for i := 0; i < 100 && stall == nil; i++ {
		if err := send.Send(2, frame()); err != nil {
			stall = err
		} else {
			time.Sleep(time.Millisecond) // let the handshake grant land
		}
	}
	if stall == nil {
		t.Fatalf("100 sends against a %d-frame window never stalled", window)
	}
	if !errors.Is(stall, queue.ErrFull) || !errors.Is(stall, pta.ErrTransient) {
		t.Fatalf("credit stall %v does not wrap queue.ErrFull and pta.ErrTransient", stall)
	}

	// Releasing the held frames returns their credits (the tiny grant
	// flushes every one); the window must reopen.
	mu.Lock()
	for _, m := range held {
		m.Release()
	}
	held = held[:0]
	mu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := send.Send(2, frame()); err == nil {
			break
		} else if !errors.Is(err, queue.ErrFull) {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("window never recovered after the receiver recycled its frames")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBulkLaneRedialResends severs the connection via the bulk lane's own
// fault stream while large frames flow: the rendezvous sender must redial
// and resend the torn frame, never dropping or duplicating.  Eager pings
// after the storm prove the ring lane survives the churn too.
func TestBulkLaneRedialResends(t *testing.T) {
	const (
		frames = 60
		pings  = 10
	)
	var (
		mu    sync.Mutex
		big   []uint32
		small int
	)
	reg := metrics.NewRegistry()
	send, _ := rawPair(t, Config{Metrics: reg}, func(_ i2o.NodeID, m *i2o.Message) error {
		mu.Lock()
		if len(m.Payload) > 256 {
			big = append(big, binary.LittleEndian.Uint32(m.Payload))
		} else {
			small++
		}
		mu.Unlock()
		m.Release()
		return nil
	})
	send.SetThreshold(256)
	// Bulk-lane stream for peer 2: Error on draws 5, 8, 11 and 14.  The
	// writer's stream (plain key 2) never fires, so any redial observed
	// below was forced by the rendezvous lane.
	send.SetWireFaults(faults.New(7).Add(faults.Rule{
		Op: faults.Error, Nth: 3, After: 2, Limit: 4,
	}))

	for i := 1; i <= frames; i++ { // bulk storm: sole sender, ring idle
		p := make([]byte, 4096)
		binary.LittleEndian.PutUint32(p, uint32(i))
		m := &i2o.Message{
			Target: 1, Initiator: i2o.TIDExecutive,
			Function: i2o.FuncPrivate, Org: i2o.OrgXDAQ, XFunction: 1,
			Payload: p,
		}
		for {
			err := send.Send(2, m)
			if err == nil {
				break
			}
			if !errors.Is(err, pta.ErrTransient) {
				t.Fatalf("bulk frame %d: %v", i, err)
			}
			runtime.Gosched() // transient: redial budget exhausted mid-storm
		}
	}
	for i := 0; i < pings; i++ { // the eager lane must still work after
		m := &i2o.Message{
			Target: 1, Initiator: i2o.TIDExecutive,
			Function: i2o.FuncPrivate, Org: i2o.OrgXDAQ, XFunction: 1,
			Payload: []byte("ping"),
		}
		for {
			err := send.Send(2, m)
			if err == nil {
				break
			}
			if !errors.Is(err, queue.ErrFull) {
				t.Fatalf("eager frame %d: %v", i, err)
			}
			runtime.Gosched()
		}
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		done := len(big) == frames && small == pings
		mu.Unlock()
		if done {
			break
		}
		if time.Now().After(deadline) {
			mu.Lock()
			t.Fatalf("received %d bulk + %d eager frames, want %d and %d", len(big), small, frames, pings)
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, got := range big {
		if got != uint32(i+1) {
			t.Fatalf("bulk position %d: seq %d (lost, duplicated or reordered)", i, got)
		}
	}
	if n := reg.Counter(PTName + ".rendezvous.sends").Value(); n != frames {
		t.Fatalf("rendezvous.sends = %d, want %d", n, frames)
	}
	if n := reg.Counter(PTName + ".connDrops").Value(); n < 1 {
		t.Fatalf("connDrops = %d; the bulk-lane faults never severed the connection", n)
	}
	if n := reg.Counter(PTName + ".dials").Value(); n < 2 {
		t.Fatalf("dials = %d; the bulk lane never redialed", n)
	}
}

// TestStopReleasesQueuedFrames checks that frames stranded on a ring when
// the transport stops are released, not leaked: the writer is stalled so
// the frames cannot drain before Stop.
func TestStopReleasesQueuedFrames(t *testing.T) {
	send, _ := rawPair(t, Config{RingDepth: 8}, nil)
	send.SetWireFaults(faults.New(1).Add(faults.Rule{Op: faults.Delay, Nth: 1, Delay: 50 * time.Millisecond}))
	alloc := pool.NewTable(0)
	for i := 0; i < 4; i++ {
		b, err := alloc.Alloc(64)
		if err != nil {
			t.Fatal(err)
		}
		m := &i2o.Message{
			Target: 1, Initiator: i2o.TIDExecutive,
			Function: i2o.FuncPrivate, Org: i2o.OrgXDAQ, XFunction: 1,
			Payload: b.Bytes(),
		}
		m.AttachBuffer(b)
		if err := send.Send(2, m); err != nil {
			t.Fatal(err)
		}
	}
	if err := send.Stop(); err != nil {
		t.Fatal(err)
	}
	if n := alloc.Stats().InUse; n != 0 {
		t.Fatalf("%d buffers leaked on Stop", n)
	}
}
