// Package tcp implements a peer transport over TCP/IP.  In the paper's
// benchmark system (§5) the TCP PT carried configuration and control
// traffic next to the low-latency Myrinet PT ("another PT thread was
// handling TCP communication for configuration and control purposes");
// here it also serves as the transport for genuinely distributed
// deployments of the cmd/xdaqd node daemon.
//
// Wire format per connection: a 24-byte handshake (8-byte magic, 4-byte
// node id, 4-byte credit grant, 8-byte connection epoch, all
// little-endian), then a stream of records.  Each record starts with one
// 32-bit word packing a 24-bit frame length and an 8-bit piggybacked credit
// return (see i2o.PackRecordWord), followed by the encoded I2O frame; a
// zero-length record carries a standalone credit return.
//
// Frames reach the socket on one of two lanes, the small/large message
// split MPICH2-over-InfiniBand makes with its eager and rendezvous
// protocols (Liu et al., PAPERS.md): below the threshold they coalesce
// through a per-peer ring and its writer, at or above it they go out on
// the sender's own goroutine while the ring is idle.  Both lanes, and
// standalone credit returns, end in the same function (put), which owns
// faults, redial, encoding and the write itself.
package tcp

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"xdaq/internal/i2o"
	"xdaq/internal/metrics"
	"xdaq/internal/pool"
	"xdaq/internal/pta"
	"xdaq/internal/queue"
	"xdaq/internal/transport/faults"
	"xdaq/internal/transport/ring"
)

// PTName is the default route name.
const PTName = "pt.tcp"

var magic = [8]byte{'X', 'D', 'A', 'Q', 'I', '2', 'O', '3'}

// helloSize is the handshake length: magic, node id, credit grant, epoch.
const helloSize = 24

// readBlockSize is the streaming receive buffer: one pool block sized so
// that any length-prefixed record fits whole.  It lands exactly on
// pool.MaxBlock (4 + 0xFFFF*4 = 256 KiB), the paper's maximum block length.
const readBlockSize = 4 + i2o.MaxWireSize

// recordHeader is the per-frame wire overhead of a gathered write: the
// 4-byte record word plus the largest frame header.
const recordHeader = 4 + i2o.PrivateHeaderSize

// dialTimeout bounds one connection attempt so a writer redialing a dead
// peer stays responsive to Stop.
const dialTimeout = 3 * time.Second

// drainTimeout bounds how long a retired connection may keep reading its
// tail: a successor stream's reader waits behind it, and a half-dead peer
// that never sends its FIN must not stall the successor for good.
const drainTimeout = time.Second

// Redial policy: a batch gets redialAttempts dial+write attempts, with
// exponential backoff between them.
const (
	redialAttempts   = 5
	redialBackoff    = time.Millisecond
	redialMaxBackoff = 200 * time.Millisecond
)

// DefaultThreshold is the eager/rendezvous switch point in wire bytes —
// the small/large message split of MPICH2-over-InfiniBand (PAPERS.md),
// scaled to this transport: coalescing amortizes its writev only while
// per-frame overhead dominates the wire time, and on a loopback TCP link
// that crossover sits near a few hundred bytes, not the tens of kilobytes
// of an RDMA eager limit.  It is also the auto-tuner's ceiling; the live
// coalescing metrics only trim the threshold within [thresholdMin,
// DefaultThreshold].
const DefaultThreshold = 256

const (
	// thresholdMin bounds how far the auto-tuner trims the threshold.
	thresholdMin = 64

	// tuneFrameFloor restores (doubles) the threshold toward
	// DefaultThreshold when the writer's average batch carries at least
	// this many frames: live traffic proves the writev amortizes, so
	// frames below the ceiling belong in the coalescing.  The tuner
	// never raises the threshold past DefaultThreshold — batch metrics
	// describe frames already riding the ring, and say nothing about
	// whether the larger frames a raise would admit are better off
	// there; measured on this path, they are not.
	tuneFrameFloor = 8

	// tuneFrameCeil halves the threshold when the average batch carries
	// no more than this many frames: the ring is not amortizing
	// anything, so the hop through the writer buys near-threshold frames
	// only latency — send them directly.  The gap between the two bounds
	// is the hysteresis band.
	tuneFrameCeil = 2
)

// DefaultCredits is the per-peer receive window granted on connect: how
// many frames a peer may have in flight toward us before its sends fail
// with ErrNoCredit.  Credit-based flow control is the InfiniBand
// reliable-connection discipline MPICH2 layers its channel on (PAPERS.md):
// the receiver pre-declares buffer capacity and the sender never overruns
// it, turning backpressure from a reactive failure into a proactive window.
//
// The window is a safety valve against a wedged receiver, not a rate
// limiter, so it must clear the link's bandwidth-delay product — and the
// delay that matters is not the wire RTT but the worst-case scheduling
// latency of the credit-return read on a loaded host (~10ms when runnable
// goroutines keep the netpoller waiting), at millions of eager frames per
// second.  A window below that product caps throughput at window/latency
// regardless of how fast both ends are; 32Ki frames rides out the stall
// while still bounding a silent peer.
const DefaultCredits = 32 * 1024

// bulkLaneBit keys the rendezvous lane's wire-fault stream: bulk sends to
// peer n draw from stream n|bulkLaneBit, the writer from stream n, so each
// lane sees its own deterministic schedule (faults.Injector.NextFor).
const bulkLaneBit = uint64(1) << 32

// bulkCopyLimit is the largest lone record put stages into contiguous
// scratch instead of gathering: at these sizes the memcpy is cheaper than
// the extra iovec bookkeeping of a writev (measured — a copying write beat
// a two-segment writev up to 4 KiB on this host).  Only scratch for puts
// on a sender's own goroutine stages (wireScratch.stage); a writer gathers
// whatever it popped, as it always has.  A writer that gets a small batch
// out sooner comes back to a shorter ring, so it issues more and smaller
// writes — BenchmarkRemoteSend lost 12% with staging writers — and the
// threshold tuner reads the small batches as the ring not amortizing and
// trims a small-frame stream onto the direct lane for good.
const bulkCopyLimit = 4096

// Errors.
var (
	// ErrClosed reports use of a stopped transport.
	ErrClosed = errors.New("tcp: closed")

	// ErrNoPeer reports a send to a node with no known address or
	// connection.
	ErrNoPeer = errors.New("tcp: no peer address")

	// ErrHandshake reports a connection with a bad magic or node id, or one
	// the peer refused (a stale epoch, or the loser of a simultaneous
	// connect).
	ErrHandshake = errors.New("tcp: handshake failed")

	// ErrRingFull reports a send onto a full per-peer ring.  It is
	// prebuilt (the backpressure path must not allocate) and wraps both
	// queue.ErrFull — the public ErrQueueFull sentinel — and
	// pta.ErrTransient, so the agent's retry policy backs off and
	// re-attempts instead of failing the frame.
	ErrRingFull = fmt.Errorf("tcp: send ring full: %w (%w)", queue.ErrFull, pta.ErrTransient)

	// ErrNoCredit reports a send against an exhausted per-peer credit
	// window: the receiver has not yet recycled enough of the frames in
	// flight.  Like ErrRingFull it is prebuilt and wraps queue.ErrFull and
	// pta.ErrTransient — credit exhaustion is transient backpressure, and
	// the window refills as the receiver returns credits.
	ErrNoCredit = fmt.Errorf("tcp: peer send window exhausted: %w (%w)", queue.ErrFull, pta.ErrTransient)
)

// Transport is one node's TCP peer transport.
type Transport struct {
	node  i2o.NodeID
	alloc pool.Allocator
	name  string
	ln    net.Listener

	mu      sync.Mutex
	conns   map[i2o.NodeID]*peerConn // the stream sends to each peer go out on
	reading map[*peerConn]struct{}   // every stream with a reader, retired ones included
	addrs   map[i2o.NodeID]string
	peers   map[i2o.NodeID]*peer
	dialing map[i2o.NodeID]*dialCall
	deliver pta.Deliver

	closed atomic.Bool
	stopc  chan struct{}
	wg     sync.WaitGroup

	depth    int
	autoTune atomic.Bool   // threshold follows the coalescing metrics
	thr      atomic.Int64  // current eager/rendezvous threshold, wire bytes
	grant    int64         // receive window granted to each peer
	flushAt  int64         // owed credits that trigger a standalone return
	epoch    atomic.Uint64 // last connection epoch handed to a dial

	// EWMA of the writer's frames per batch, 1/16 fixed point, alpha 1/8.
	// Shared across per-peer writers; the races are benign (the tuner is
	// a heuristic reading an approximate average).
	avgFrames atomic.Int64

	scratch sync.Pool // *wireScratch, for puts off the writer goroutines

	flt  faults.Hook                     // send path (enqueue)
	wflt atomic.Pointer[faults.Injector] // wire path (put)

	nSent    *metrics.Counter
	nRecv    *metrics.Counter
	nDials   *metrics.Counter
	nAccs    *metrics.Counter
	nDrops   *metrics.Counter
	nWrites  *metrics.Counter // batch.writes: writer batches put on the wire
	nBatched *metrics.Counter // batch.frames: frames carried by them
	nFull    *metrics.Counter // ring.full: sends refused by backpressure
	nErrs    *metrics.Counter // sendErrors: frames put gave up on
	nRvSends *metrics.Counter // rendezvous.sends: frames on the bulk lane
	nRvBytes *metrics.Counter // rendezvous.bytes: wire bytes they carried
	nRvFall  *metrics.Counter // rendezvous.fallback: bulk frames via the ring
	nStalls  *metrics.Counter // credits.stalls: sends refused by ErrNoCredit
	nCredRet *metrics.Counter // credits.returned: credits accrued for peers
	nCredSnt *metrics.Counter // credits.sent: credits put on the wire
}

// peerConn is one handshaken stream.  Its identity is (initiator, epoch):
// the initiator stamps every dial with a fresh epoch, so both ends agree
// which of two streams between them is the newer.
type peerConn struct {
	node      i2o.NodeID
	initiator i2o.NodeID // who dialed this stream
	epoch     uint64     // the initiator's epoch for this dial
	c         *net.TCPConn
	grant     uint32     // credit window the peer granted us
	writeMu   sync.Mutex // serializes puts (and the accept-side hello)

	after <-chan struct{} // predecessor stream's done; the reader waits for it
	done  chan struct{}   // closed when this stream's reader has exited
}

// peer is the per-destination state: the descriptor ring, the writer
// draining it, both directions of the credit account — credits is our
// remaining send window toward the peer, owed is what we have to give back
// for frames received from it — and the tail of the peer's reader chain.
type peer struct {
	node i2o.NodeID
	q    *ring.Queue[*i2o.Message]

	wstarted bool            // writer goroutine running (guarded by Transport.mu)
	tail     <-chan struct{} // done of the newest stream adopted (guarded by Transport.mu)

	credits atomic.Int64 // send window remaining toward this peer
	limit   atomic.Int64 // granted window size
	owed    atomic.Int64 // credits to return for frames received from it
}

// refill returns n credits to the send window, clamped at the granted
// limit: reconnect re-grants and duplicated frames can over-return, and
// the clamp keeps the window honest.
func (p *peer) refill(n int64) {
	lim := p.limit.Load()
	for n > 0 {
		cur := p.credits.Load()
		next := min(cur+n, lim)
		if next <= cur || p.credits.CompareAndSwap(cur, next) {
			return
		}
	}
}

// wireScratch is one put's reusable state, owned by a writer goroutine or
// pooled for puts on other goroutines, so the steady state allocates
// nothing.  bufs shares vec's backing array for the writev:
// net.Buffers.WriteTo advances its receiver through the slice, so the call
// needs a heap-resident header to escape into — keeping it here avoids a
// per-write allocation that a stack net.Buffers would pay at the interface
// call.
type wireScratch struct {
	stage bool           // stage a lone record up to bulkCopyLimit; false for the writers
	ms    []*i2o.Message // frames not yet on the wire, oldest first
	sizes []int          // record sizes of the attempt in flight
	hdr   []byte         // record words + headers (gathered) or whole records (staged)
	vec   [][]byte
	bufs  net.Buffers
}

// dialCall dedupes concurrent dials to the same peer (singleflight): the
// first sender dials, the rest wait for its result.
type dialCall struct {
	done chan struct{}
	pc   *peerConn
	err  error
}

var _ pta.PeerTransport = (*Transport)(nil)

// Config configures a Transport.
type Config struct {
	// Name overrides the route name; defaults to PTName.
	Name string

	// Listen is the accept address, e.g. "127.0.0.1:0".  Empty disables
	// listening (a pure client node).
	Listen string

	// Peers maps node identities to dial addresses.
	Peers map[i2o.NodeID]string

	// Metrics receives the transport's counters (<name>.sent, .recv,
	// .dials, .accepts, .connDrops, .batch.writes, .batch.frames,
	// .ring.full, .sendErrors, .rendezvous.sends, .rendezvous.bytes,
	// .rendezvous.fallback, .credits.stalls, .credits.returned,
	// .credits.sent and the .ring.depth, .rendezvous.threshold,
	// .credits.available gauges); defaults to metrics.Default.  Pass the
	// owning executive's registry so the counters show up in that node's
	// scrape.
	Metrics *metrics.Registry

	// RingDepth is the per-peer send ring capacity; <=0 selects
	// ring.DefaultDepth.
	RingDepth int
}

// New creates the transport and, when configured, starts listening.
func New(node i2o.NodeID, alloc pool.Allocator, cfg Config) (*Transport, error) {
	if cfg.Name == "" {
		cfg.Name = PTName
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.Default
	}
	if cfg.RingDepth <= 0 {
		cfg.RingDepth = ring.DefaultDepth
	}
	t := &Transport{
		node:    node,
		alloc:   alloc,
		name:    cfg.Name,
		conns:   make(map[i2o.NodeID]*peerConn),
		reading: make(map[*peerConn]struct{}),
		addrs:   make(map[i2o.NodeID]string),
		peers:   make(map[i2o.NodeID]*peer),
		dialing: make(map[i2o.NodeID]*dialCall),
		stopc:   make(chan struct{}),

		depth:   cfg.RingDepth,
		grant:   DefaultCredits,
		flushAt: i2o.MaxRecordCredits,

		nSent:    cfg.Metrics.Counter(cfg.Name + ".sent"),
		nRecv:    cfg.Metrics.Counter(cfg.Name + ".recv"),
		nDials:   cfg.Metrics.Counter(cfg.Name + ".dials"),
		nAccs:    cfg.Metrics.Counter(cfg.Name + ".accepts"),
		nDrops:   cfg.Metrics.Counter(cfg.Name + ".connDrops"),
		nWrites:  cfg.Metrics.Counter(cfg.Name + ".batch.writes"),
		nBatched: cfg.Metrics.Counter(cfg.Name + ".batch.frames"),
		nFull:    cfg.Metrics.Counter(cfg.Name + ".ring.full"),
		nErrs:    cfg.Metrics.Counter(cfg.Name + ".sendErrors"),
		nRvSends: cfg.Metrics.Counter(cfg.Name + ".rendezvous.sends"),
		nRvBytes: cfg.Metrics.Counter(cfg.Name + ".rendezvous.bytes"),
		nRvFall:  cfg.Metrics.Counter(cfg.Name + ".rendezvous.fallback"),
		nStalls:  cfg.Metrics.Counter(cfg.Name + ".credits.stalls"),
		nCredRet: cfg.Metrics.Counter(cfg.Name + ".credits.returned"),
		nCredSnt: cfg.Metrics.Counter(cfg.Name + ".credits.sent"),
	}
	t.scratch.New = func() any { return &wireScratch{stage: true} }
	t.autoTune.Store(true)
	t.thr.Store(DefaultThreshold)
	// Epochs start at the wall clock so a restarted node's first dial
	// still outranks whatever its previous incarnation left behind.
	t.epoch.Store(uint64(time.Now().UnixNano()))
	cfg.Metrics.Func(cfg.Name+".ring.depth", t.ringDepth)
	cfg.Metrics.Func(cfg.Name+".rendezvous.threshold", t.thr.Load)
	cfg.Metrics.Func(cfg.Name+".credits.available", t.creditsAvailable)
	for n, a := range cfg.Peers {
		t.addrs[n] = a
	}
	if cfg.Listen != "" {
		ln, err := net.Listen("tcp", cfg.Listen)
		if err != nil {
			return nil, fmt.Errorf("tcp: listen %s: %w", cfg.Listen, err)
		}
		t.ln = ln
		t.wg.Add(1)
		go t.acceptLoop()
	}
	return t, nil
}

// ringDepth samples the total frames queued across all per-peer rings.
func (t *Transport) ringDepth() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var n int64
	for _, p := range t.peers {
		n += int64(p.q.Len())
	}
	return n
}

// creditsAvailable samples the remaining send window summed over peers.
func (t *Transport) creditsAvailable() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var n int64
	for _, p := range t.peers {
		n += p.credits.Load()
	}
	return n
}

// Addr returns the listening address, or "" for client-only transports.
func (t *Transport) Addr() string {
	if t.ln == nil {
		return ""
	}
	return t.ln.Addr().String()
}

// AddPeer maps a node to a dial address at runtime.
func (t *Transport) AddPeer(node i2o.NodeID, addr string) {
	t.mu.Lock()
	t.addrs[node] = addr
	t.mu.Unlock()
}

// SetThreshold pins the eager/rendezvous threshold at runtime: frames at
// or above n wire bytes take the direct lane, smaller ones coalesce
// through the ring.  Pinning disables the auto-tuner; n == 0 hands the
// threshold back to it (from wherever it currently sits).  This is the
// knob the control-plane autopilot turns on coalescing stats
// (doc/control-plane.md).
func (t *Transport) SetThreshold(n int) {
	if n > 0 {
		t.autoTune.Store(false)
		t.thr.Store(int64(n))
		return
	}
	t.autoTune.Store(true)
}

// SetTunable implements pta.Tunable: the remote-actuation path for the
// transport's runtime knobs.  "threshold" maps to SetThreshold.
func (t *Transport) SetTunable(key string, value int64) error {
	switch key {
	case "threshold":
		t.SetThreshold(int(value))
		return nil
	}
	return fmt.Errorf("tcp: no tunable %q", key)
}

// SetFaults installs a fault injector on the send (enqueue) path; nil
// removes it.
func (t *Transport) SetFaults(in *faults.Injector) { t.flt.Set(in) }

// SetWireFaults installs a fault injector on the wire path: put consults
// it once per batch, each lane drawing from its own per-peer stream (the
// bulk lane's key is BulkFaultStream) so both schedules stay
// deterministic.  Drop and Error sever the live connection — a byte stream
// cannot lose a single frame, so a wire fault kills the whole stream and
// the affected frames ride the redial — and Delay stalls the sending
// goroutine (backpressure builds up behind it).  Nil removes the injector.
func (t *Transport) SetWireFaults(in *faults.Injector) { t.wflt.Store(in) }

// BulkFaultStream returns the wire-fault stream key the rendezvous lane
// draws for sends to node — distinct from the eager writer's stream (the
// bare node id), so each lane sees its own deterministic fault schedule.
// The chaos harness uses it to render bulk-lane fault plans
// (chaos.PlanString) that replay byte-identically from a seed.
func BulkFaultStream(node i2o.NodeID) uint64 { return uint64(node) | bulkLaneBit }

// Name implements pta.PeerTransport.
func (t *Transport) Name() string { return t.name }

// Start implements pta.PeerTransport.  TCP runs in task mode only: every
// connection has its own read goroutine.
func (t *Transport) Start(fn pta.Deliver) error {
	t.mu.Lock()
	t.deliver = fn
	t.mu.Unlock()
	return nil
}

// Poll implements pta.PeerTransport; TCP is push-only.
func (t *Transport) Poll(pta.Deliver, int) int { return 0 }

func (t *Transport) deliverFn() pta.Deliver {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.deliver
}

// Send implements pta.PeerTransport.  Every frame first consumes one
// credit from the peer's window (ErrNoCredit when exhausted).  Small
// frames enqueue on the peer's send ring and return immediately — the
// frame then belongs to the writer, which recycles it once written; a full
// ring fails with ErrRingFull.  Frames at or above the rendezvous
// threshold go out synchronously on the sender's goroutine when the ring
// is idle (ring.Idle), falling back to the ring otherwise to preserve
// per-sender order.  On any error return the frame's buffer is released but
// the struct is left intact, so the agent's retry policy can re-attach and
// resend it.
func (t *Transport) Send(dst i2o.NodeID, m *i2o.Message) error {
	if t.closed.Load() {
		m.Release()
		return ErrClosed
	}
	copies, err := t.flt.Apply(dst, m)
	if copies == 0 {
		return err
	}
	p, err := t.peerFor(dst)
	if err != nil {
		m.Release()
		return err
	}
	if p.credits.Add(-1) < 0 {
		p.credits.Add(1)
		m.Release()
		t.nStalls.Inc()
		return ErrNoCredit
	}
	// A duplicate is a lost-ack retransmission: an independent, uncredited
	// clone (its credit return is the clamp's problem, not the window's)
	// goes out immediately ahead of the original, on the same lane.
	if size := m.WireSize(); size >= int(t.thr.Load()) {
		if p.q.Idle() {
			s := t.scratch.Get().(*wireScratch)
			s.ms = s.ms[:0]
			if copies == 2 {
				s.ms = append(s.ms, m.Dup())
			}
			s.ms = append(s.ms, m)
			sent, err := t.put(p, s, BulkFaultStream(dst))
			t.scratch.Put(s)
			t.nRvSends.Add(uint64(sent))
			t.nRvBytes.Add(uint64(sent * size))
			return err
		}
		// Earlier frames are still on or behind the ring; ride it so
		// per-sender order holds across the lanes.
		t.nRvFall.Inc()
	}
	if copies == 2 {
		// Ring-full here simply loses the duplicate.
		d := m.Dup()
		if err := p.q.Push(d); err != nil {
			d.Release()
		}
	}
	if err := p.q.Push(m); err != nil {
		p.refill(1)
		m.Release()
		if errors.Is(err, ring.ErrClosed) {
			return ErrClosed
		}
		t.nFull.Inc()
		return ErrRingFull
	}
	return nil
}

// put is the only place records reach a socket.  It takes the frames in
// s.ms — the writer's popped batch, a rendezvous send's batch of one, or
// none at all for a standalone credit return — and sees them onto p's
// stream in order: the wire-fault draw, then connect, encode (record words
// carry piggybacked credit returns), one write under the connection's
// write mutex, and on a broken connection redial with backoff and resend
// of exactly the records the kernel did not consume whole.  A record either
// reached the kernel whole or the receiver discards the torn tail with the
// stream, and a redialed stream is read only after its predecessor's tail
// (see adopt), so a frame is never delivered twice or out of order.
//
// It returns how many frames reached the kernel; those are recycled.  When
// the rest could not be sent — redial budget exhausted, unencodable, or the
// transport stopped — they are failed (see fail) and err says why.  A lone
// record up to bulkCopyLimit is staged contiguously where the scratch
// allows it (see bulkCopyLimit); anything else is gathered zero-copy:
// record words and headers from scratch, payload slices (or every segment
// of an SGL) straight from the frames.
func (t *Transport) put(p *peer, s *wireScratch, stream uint64) (sent int, err error) {
	// A standalone credit return rides the live connection or none: it is
	// not worth a dial, a retry or a fault draw of its own.
	frames := len(s.ms) > 0
	if in := t.wflt.Load(); in != nil && frames {
		switch act := in.NextFor(stream); act.Op {
		case faults.Delay:
			time.Sleep(act.Delay)
		case faults.Drop, faults.Error:
			if pc, _ := t.connTo(p.node, false); pc != nil {
				t.retire(pc)
			}
		case faults.Duplicate:
			// Retransmit the oldest frame: its clone goes on the wire
			// immediately before it, like a sender whose ack timer fired
			// just as the kernel drained the socket.
			s.ms = append(s.ms, nil)
			copy(s.ms[1:], s.ms)
			s.ms[0] = s.ms[1].Dup()
		}
	}
	for tries := 0; ; {
		if t.closed.Load() {
			err = ErrClosed
			break
		}
		pc, cerr := t.connTo(p.node, frames)
		if cerr != nil {
			if !frames || errors.Is(cerr, ErrNoPeer) || errors.Is(cerr, ErrClosed) || !t.backoff(&tries) {
				err = cerr
				break
			}
			continue
		}

		staged := len(s.ms) == 0 || s.stage && len(s.ms) == 1 && s.ms[0].WireSize() <= bulkCopyLimit
		if need := max(len(s.ms)*recordHeader, 4+bulkCopyLimit); cap(s.hdr) < need {
			s.hdr = make([]byte, 0, need)
		}
		// Locals, not fields, in the per-frame loop: it is the writer's
		// hot path.
		hdr, vec, sizes, kept := s.hdr[:0], s.vec[:0], s.sizes[:0], s.ms[:0]
		for _, m := range s.ms {
			off, size := len(hdr), m.WireSize()
			var h int
			if staged {
				hdr = hdr[:off+4+size]
				h, err = m.Encode(hdr[off+4:])
			} else {
				hdr = hdr[:off+recordHeader]
				h, err = m.EncodeHeader(hdr[off+4:])
			}
			if err != nil {
				hdr = hdr[:off]
				t.fail(p, m)
				continue
			}
			binary.LittleEndian.PutUint32(hdr[off:], i2o.PackRecordWord(size, t.claimOwed(p)))
			hdr = hdr[:off+4+h]
			if !staged {
				vec = append(vec, hdr[off:])
				vec = m.AppendBody(vec)
			}
			sizes = append(sizes, 4+size)
			kept = append(kept, m)
		}
		if !frames {
			take := t.claimOwed(p)
			if take == 0 {
				return 0, nil
			}
			hdr = binary.LittleEndian.AppendUint32(hdr, i2o.PackRecordWord(0, take))
			sizes = append(sizes, 4)
		}
		s.hdr, s.vec, s.sizes, s.ms = hdr, vec, sizes, kept
		if frames && len(kept) == 0 {
			return sent, err // nothing encodable left
		}

		var n int64
		pc.writeMu.Lock()
		if staged {
			var wn int
			wn, err = pc.c.Write(s.hdr)
			n = int64(wn)
		} else {
			s.bufs = net.Buffers(s.vec)
			n, err = s.bufs.WriteTo(pc.c)
		}
		pc.writeMu.Unlock()
		// WriteTo consumes through the shared backing array; clear the
		// leftovers so the scratch iovec never pins payload blocks.
		s.bufs = nil
		clear(s.vec)

		// Records the kernel consumed whole may have reached the peer; only
		// the rest are retried.
		done := len(s.ms)
		if err != nil {
			done = min(framesWritten(s.sizes, n), done)
		}
		for _, m := range s.ms[:done] {
			m.Recycle()
		}
		t.nSent.Add(uint64(done))
		sent += done
		s.ms = append(s.ms[:0], s.ms[done:]...)
		if err == nil {
			return sent, nil
		}
		t.retire(pc)
		if len(s.ms) == 0 {
			return sent, nil
		}
		if !t.backoff(&tries) {
			// A broken connection is transient from the agent's view: the
			// next attempt redials, so its retry policy may recover the frame.
			err = fmt.Errorf("tcp: write to %v: %w (%w)", p.node, err, pta.ErrTransient)
			break
		}
	}
	for _, m := range s.ms {
		t.fail(p, m)
	}
	s.ms = s.ms[:0]
	return sent, err
}

// fail gives up on a frame put could not send: it counts as a send error,
// its credit goes back to the window (a no-op when the connection died and
// retire already reset the window), and its buffer is released — the struct
// stays intact for the agent's retry when the frame came in on the sender's
// goroutine.
func (t *Transport) fail(p *peer, m *i2o.Message) {
	t.nErrs.Inc()
	p.refill(1)
	m.Release()
}

// framesWritten counts the leading records fully covered by n bytes of a
// write.
func framesWritten(sizes []int, n int64) int {
	done := 0
	for _, s := range sizes {
		if n < int64(s) {
			break
		}
		n -= int64(s)
		done++
	}
	return done
}

// backoff sleeps out the redial delay for the given attempt count and
// reports whether another attempt is allowed.  It wakes early on Stop.
func (t *Transport) backoff(tries *int) bool {
	*tries++
	if *tries >= redialAttempts {
		return false
	}
	timer := time.NewTimer(min(redialBackoff<<(*tries-1), redialMaxBackoff))
	select {
	case <-timer.C:
	case <-t.stopc:
		timer.Stop()
	}
	return true
}

// claimOwed drains up to one record word's worth of the credits owed to a
// peer, for piggybacking on an outbound record.  Claims riding a write
// that never reaches the peer are simply lost: the connection died with
// them, and both windows reset on reconnect.
func (t *Transport) claimOwed(p *peer) int {
	for {
		o := p.owed.Load()
		if o <= 0 {
			return 0
		}
		take := min(o, i2o.MaxRecordCredits)
		if p.owed.CompareAndSwap(o, o-take) {
			t.nCredSnt.Add(uint64(take))
			return int(take)
		}
	}
}

// returnCredits accrues credits owed to a peer for recycled receive
// frames, flushing a standalone return — an empty put — when reverse
// traffic has not piggybacked them away fast enough: the one-way-traffic
// fallback for receivers with nothing to piggyback on.
func (t *Transport) returnCredits(p *peer, n int64) {
	if t.closed.Load() {
		return
	}
	t.nCredRet.Add(uint64(n))
	if p.owed.Add(n) >= t.flushAt {
		s := t.scratch.Get().(*wireScratch)
		s.ms = s.ms[:0]
		_, _ = t.put(p, s, 0) // a failed return died with its connection
		t.scratch.Put(s)
	}
}

// stateLocked returns dst's peer state, creating it (ring, credit account,
// no writer) under t.mu.  The initial window is the connection's grant
// when one exists, optimistic DefaultCredits otherwise — adopt resets it
// to the real grant as soon as a handshake completes.
func (t *Transport) stateLocked(dst i2o.NodeID) *peer {
	p := t.peers[dst]
	if p != nil {
		return p
	}
	p = &peer{node: dst, q: ring.New[*i2o.Message](t.depth)}
	grant := int64(DefaultCredits)
	if pc := t.conns[dst]; pc != nil {
		grant = int64(pc.grant)
	}
	p.limit.Store(grant)
	p.credits.Store(grant)
	t.peers[dst] = p
	return p
}

// peerFor returns dst's send state, creating it and starting its writer on
// first use.  A peer is only created when dst is reachable: a known dial
// address or an already-adopted connection.
func (t *Transport) peerFor(dst i2o.NodeID) (*peer, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed.Load() {
		return nil, ErrClosed
	}
	p := t.peers[dst]
	if p == nil {
		if _, ok := t.addrs[dst]; !ok {
			if _, ok := t.conns[dst]; !ok {
				return nil, fmt.Errorf("%w: %v", ErrNoPeer, dst)
			}
		}
		p = t.stateLocked(dst)
	}
	if !p.wstarted {
		p.wstarted = true
		t.wg.Add(1)
		go t.writeLoop(p)
	}
	return p, nil
}

// writeLoop drains one peer's ring: every frame queued since the last
// write goes out in a single put.  Stop closes the ring, which wakes the
// loop to fail whatever is still queued (put refuses a stopped transport)
// and exit.
func (t *Transport) writeLoop(p *peer) {
	defer t.wg.Done()
	s := &wireScratch{ms: make([]*i2o.Message, 0, t.depth)}
	for {
		p.q.Done() // previous batch resolved: reopen the rendezvous gate
		var closed bool
		s.ms, closed = p.q.PopBatch(s.ms)
		switch {
		case len(s.ms) == 0 && closed:
			return
		case len(s.ms) == 0:
			p.q.Wait(nil)
		default:
			if sent, _ := t.put(p, s, uint64(p.node)); sent > 0 {
				t.nWrites.Inc()
				t.nBatched.Add(uint64(sent))
				t.tuneThreshold(sent)
			}
		}
	}
}

// tuneThreshold adapts the eager/rendezvous split to the writer's measured
// batch shape (an EWMA over the batch.* metrics' inputs).  The signal is
// frames per batch: when batches degenerate to one or two frames, the
// ring hop amortizes nothing and the threshold halves so near-threshold
// frames take the direct lane instead; when many frames share each
// syscall again, the threshold doubles back toward its DefaultThreshold
// ceiling.  The tuner is deliberately one-sided — it trims, it never
// raises past the ceiling — and total batch bytes are deliberately not a
// trigger: a byte-heavy batch of many small frames is coalescing at its
// best, not a reason to divert traffic.  Mis-tuned states self-correct
// within a few batches.
func (t *Transport) tuneThreshold(frames int) {
	if !t.autoTune.Load() {
		return
	}
	af := t.avgFrames.Load()
	af += (int64(frames)<<4 - af) >> 3
	t.avgFrames.Store(af)
	thr := t.thr.Load()
	switch {
	case af>>4 >= tuneFrameFloor && thr < DefaultThreshold:
		t.thr.Store(thr << 1)
	case af>>4 <= tuneFrameCeil && thr > thresholdMin:
		t.thr.Store(thr >> 1)
	}
}

// connTo returns the connection to dst.  With dial set it opens one when
// there is none; concurrent callers (rendezvous senders, or a writer
// racing the accept side) share a single in-flight dial.
func (t *Transport) connTo(dst i2o.NodeID, dial bool) (*peerConn, error) {
	for {
		t.mu.Lock()
		if pc, ok := t.conns[dst]; ok {
			t.mu.Unlock()
			return pc, nil
		}
		if t.closed.Load() {
			t.mu.Unlock()
			return nil, ErrClosed
		}
		if !dial {
			t.mu.Unlock()
			return nil, ErrNoPeer
		}
		if d, ok := t.dialing[dst]; ok {
			t.mu.Unlock()
			<-d.done
			if d.err != nil {
				return nil, d.err
			}
			if d.pc != nil {
				return d.pc, nil
			}
			continue
		}
		addr, ok := t.addrs[dst]
		if !ok {
			t.mu.Unlock()
			return nil, fmt.Errorf("%w: %v", ErrNoPeer, dst)
		}
		d := &dialCall{done: make(chan struct{})}
		t.dialing[dst] = d
		t.mu.Unlock()

		ctx, cancel := context.WithTimeout(context.Background(), dialTimeout)
		d.pc, d.err = t.open(ctx, addr, dst)
		cancel()
		t.mu.Lock()
		delete(t.dialing, dst)
		t.mu.Unlock()
		close(d.done)
		return d.pc, d.err
	}
}

// open dials addr under a fresh epoch, handshakes, and adopts the stream.
// want names the node expected to answer; zero accepts whoever does (but
// never ourselves) and registers addr as that node's dial address.
func (t *Transport) open(ctx context.Context, addr string, want i2o.NodeID) (*peerConn, error) {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcp: dial %s: %w (%w)", addr, err, pta.ErrTransient)
	}
	c := nc.(*net.TCPConn) // what the "tcp" network dials
	t.nDials.Inc()
	epoch := t.epoch.Add(1)
	if err := t.writeHello(c, epoch); err != nil {
		c.Close()
		return nil, err
	}
	peer, grant, _, err := readHello(c)
	switch {
	case err != nil:
	case want != 0 && peer != want:
		err = fmt.Errorf("%w: dialed %v, got %v", ErrHandshake, want, peer)
	case peer == t.node:
		err = fmt.Errorf("%w: %s is ourselves (node %v)", ErrHandshake, addr, peer)
	}
	if err != nil {
		c.Close()
		return nil, err
	}
	if want == 0 {
		t.AddPeer(peer, addr)
	}
	return t.adopt(&peerConn{node: peer, initiator: t.node, epoch: epoch, c: c, grant: grant})
}

// Identify dials addr, handshakes, and adopts the connection for
// whichever node answers — the inverse of a send's dial, which requires
// knowing the peer's identity up front.  It returns the peer's node id
// after registering addr as its dial address, so the cluster bootstrap can
// rendezvous with a seed member knowing only "host:port".  The context
// bounds the dial; the handshake itself rides the connection's own
// deadline handling.
func (t *Transport) Identify(ctx context.Context, addr string) (i2o.NodeID, error) {
	if t.closed.Load() {
		return 0, ErrClosed
	}
	ctx, cancel := context.WithTimeout(ctx, dialTimeout)
	defer cancel()
	pc, err := t.open(ctx, addr, 0)
	if err != nil {
		return 0, err
	}
	return pc.node, nil
}

// writeHello sends our identity and credit grant with the stream's epoch:
// the initiator's fresh one, echoed back by the acceptor.
func (t *Transport) writeHello(c net.Conn, epoch uint64) error {
	var hello [helloSize]byte
	copy(hello[:8], magic[:])
	binary.LittleEndian.PutUint32(hello[8:], uint32(t.node))
	binary.LittleEndian.PutUint32(hello[12:], uint32(t.grant))
	binary.LittleEndian.PutUint64(hello[16:], epoch)
	if _, err := c.Write(hello[:]); err != nil {
		return fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	return nil
}

func readHello(c net.Conn) (node i2o.NodeID, grant uint32, epoch uint64, err error) {
	// The magic is checked before the rest is awaited: a peer speaking an
	// older protocol sends a shorter hello and must be refused, not waited on.
	var hello [helloSize]byte
	if _, err := io.ReadFull(c, hello[:8]); err != nil {
		// The peer hung up unanswered: a refusal (see adopt), or a
		// connection lost mid-handshake.  Either way the next dial may fare
		// better.
		return 0, 0, 0, fmt.Errorf("%w: %v (%w)", ErrHandshake, err, pta.ErrTransient)
	}
	if [8]byte(hello[:8]) != magic {
		return 0, 0, 0, fmt.Errorf("%w: bad magic", ErrHandshake)
	}
	if _, err := io.ReadFull(c, hello[8:]); err != nil {
		return 0, 0, 0, fmt.Errorf("%w: %v (%w)", ErrHandshake, err, pta.ErrTransient)
	}
	node = i2o.NodeID(binary.LittleEndian.Uint32(hello[8:]))
	grant = binary.LittleEndian.Uint32(hello[12:])
	if grant == 0 {
		return 0, 0, 0, fmt.Errorf("%w: zero credit grant", ErrHandshake)
	}
	return node, grant, binary.LittleEndian.Uint64(hello[16:]), nil
}

// adopt registers a handshaken stream, makes it the one sends to its peer
// go out on, and starts its reader.  It returns the stream now current for
// the peer, which is not pc when pc lost:
//
//   - Two streams from the same initiator: the higher epoch wins.  The
//     initiator only redials after giving the old stream up, so a lower
//     epoch showing up late is a stale dial and is refused.
//   - A simultaneous connect — both nodes dialed each other at once: both
//     sides keep the stream dialed by the lower node id; picking
//     deterministically means the peers agree on the survivor instead of
//     each closing the one the other kept.
//
// A losing pc is closed unanswered (the accept side adopts before it sends
// its hello), so its initiator sees a failed handshake before it has sent
// a frame on it, and retries.  A superseded stream is retired, not closed:
// frames its sender already counted as sent may still be unread in the
// socket, so its reader finishes the tail, and pc's reader starts only
// once it has — a peer's streams are delivered strictly one after another,
// in adoption order, which is what keeps a redialed stream's frames behind
// its predecessor's.
//
// Adoption also resets the peer's credit account to the fresh grant:
// credits consumed or owed on the old stream died with it, and both sides
// re-grant on reconnect so the windows stay in agreement.
func (t *Transport) adopt(pc *peerConn) (*peerConn, error) {
	accepted := pc.initiator != t.node
	t.mu.Lock()
	if t.closed.Load() {
		t.mu.Unlock()
		pc.c.Close()
		return nil, ErrClosed
	}
	old := t.conns[pc.node]
	if old != nil {
		keep := pc.initiator == min(t.node, pc.node)
		if old.initiator == pc.initiator {
			keep = pc.epoch > old.epoch
		}
		if !keep {
			t.mu.Unlock()
			pc.c.Close()
			return old, nil
		}
	}
	p := t.stateLocked(pc.node)
	p.limit.Store(int64(pc.grant))
	p.credits.Store(int64(pc.grant))
	p.owed.Store(0)
	pc.done = make(chan struct{})
	pc.after, p.tail = p.tail, pc.done
	t.conns[pc.node] = pc
	t.reading[pc] = struct{}{}
	t.wg.Add(1)
	if accepted {
		// Senders can find pc from here on; hold them off until the hello
		// is on the wire ahead of their records.
		pc.writeMu.Lock()
	}
	t.mu.Unlock()
	if old != nil {
		t.retire(old)
	}
	if accepted {
		_ = t.writeHello(pc.c, pc.epoch) // a dead stream is the reader's to find
		pc.writeMu.Unlock()
	}
	go t.readLoop(pc, p)
	return pc, nil
}

// retire takes pc out of service without discarding a byte either kernel
// has accepted — an injected sever, a write error and a superseding stream
// all end here.  Sends stop using it, its write side is shut so the peer's
// reader sees EOF behind everything already written, and its own reader
// gets drainTimeout to finish the peer's tail; the reader, not retire,
// closes the socket.
//
// The credit account dies with the stream: consumed credits whose frames
// were lost in flight would otherwise leak the window shut — and an
// exhausted window with no live connection would refuse every Send before
// anything redials, wedging the link for good.  Resetting here is safe
// because the next handshake re-grants both sides anyway.
func (t *Transport) retire(pc *peerConn) {
	t.mu.Lock()
	current := t.conns[pc.node] == pc
	if current {
		delete(t.conns, pc.node)
		if p := t.peers[pc.node]; p != nil {
			p.credits.Store(p.limit.Load())
			p.owed.Store(0)
		}
	}
	t.mu.Unlock()
	if current {
		t.nDrops.Inc()
	}
	_ = pc.c.CloseWrite()
	_ = pc.c.SetReadDeadline(time.Now().Add(drainTimeout))
}

// Conns returns the number of streams with a reader.  Each reader holds
// one pooled receive block while its stream is open, so pool-population
// audits (the chaos harness's leak checker) subtract the count before
// comparing against a baseline: failover and redial legitimately move it.
func (t *Transport) Conns() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.reading)
}

func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		c, err := t.ln.Accept()
		if err != nil {
			return
		}
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			peer, grant, epoch, err := readHello(c)
			if err != nil || peer == t.node { // garbage, or a dial that looped back to us
				c.Close()
				return
			}
			t.nAccs.Inc()
			// What a "tcp" listener accepts is a *net.TCPConn.
			_, _ = t.adopt(&peerConn{node: peer, initiator: peer, epoch: epoch, c: c.(*net.TCPConn), grant: grant})
		}()
	}
}

// recvBlock wraps one pooled receive block in the transport's credit
// accounting: frames decoded from the block retain the wrapper instead of
// the block, and every consumer Release recycles one frame back to the
// pool and returns its credit to the sending peer right away.  Returning
// per frame rather than per block keeps the window liquid — one long-held
// frame (a pending request payload, say) must not pin the credits of the
// thousands of short-lived frames its block also served.  One wrapper
// serves the whole block, so the per-frame receive path stays
// allocation-free.
type recvBlock struct {
	t    *Transport
	p    *peer
	buf  *pool.Buffer
	refs atomic.Int64
}

func (b *recvBlock) Retain() { b.refs.Add(1) }

// Release is the frame consumers' hook: one frame done, one credit back.
// Retain/Release pairs beyond the decode-time reference (agent retries,
// duplicated frames) over-return; the sender's window clamp absorbs that.
func (b *recvBlock) Release() {
	b.t.returnCredits(b.p, 1)
	b.drop()
}

// drop releases a reference without a credit return — the read loop's own
// block ownership is not a frame.
func (b *recvBlock) drop() {
	if b.refs.Add(-1) == 0 {
		b.buf.Release()
	}
}

// readLoop streams records out of one connection, once the peer's
// previous stream has been read out (see adopt).  Bytes land in a 256 KB
// pool block; frames decode in place and retain the block (via its credit
// wrapper), so one block backs every frame it holds and recycles itself
// when the last consumer releases.  The loop rewinds the block only when
// it is the sole owner and moves a partial record to a fresh block
// otherwise — delivered payloads are never overwritten.  Credit returns
// arriving on record words refill the send window toward this peer.  The
// reader owns the socket: it alone closes it, on EOF, a read error, a
// protocol violation or Stop.
func (t *Transport) readLoop(pc *peerConn, p *peer) {
	var (
		rb         *recvBlock
		data       []byte
		start, end int
	)
	defer func() {
		if rb != nil {
			rb.drop()
		}
		t.retire(pc)
		pc.c.Close()
		t.mu.Lock()
		delete(t.reading, pc)
		t.mu.Unlock()
		close(pc.done)
		t.wg.Done()
	}()
	newBlock := func() bool {
		b, err := t.alloc.Alloc(readBlockSize)
		if err != nil {
			return false
		}
		nrb := &recvBlock{t: t, p: p, buf: b}
		nrb.refs.Store(1)
		nd := b.Bytes()
		n := 0
		if rb != nil {
			n = copy(nd, data[start:end])
			rb.drop()
		}
		rb, data, start, end = nrb, nd, 0, n
		return true
	}
	if !newBlock() {
		return
	}
	if pc.after != nil {
		select {
		case <-pc.after:
		case <-t.stopc:
			return
		}
	}
	for {
		// Decode every complete record in the block.
		for end-start >= 4 {
			size, cred := i2o.UnpackRecordWord(binary.LittleEndian.Uint32(data[start:]))
			if size == 0 {
				if cred == 0 {
					return // all-zero word: protocol violation
				}
				p.refill(int64(cred)) // standalone credit return
				start += 4
				continue
			}
			if size < i2o.StandardHeaderSize || size > i2o.MaxWireSize {
				return // protocol violation; drop the connection
			}
			if end-start < 4+size {
				break
			}
			if cred > 0 {
				p.refill(int64(cred)) // piggybacked return
			}
			m, _, err := i2o.DecodeAcquired(data[start+4 : start+4+size])
			if err != nil {
				return
			}
			rb.Retain()
			m.AttachBuffer(rb)
			start += 4 + size
			fn := t.deliverFn()
			if fn == nil {
				m.Release()
				continue
			}
			t.nRecv.Inc()
			if err := fn(pc.node, m); err != nil && t.closed.Load() {
				return
			}
		}
		// Make room for the next read.
		if start == end {
			if rb.refs.Load() == 1 {
				start, end = 0, 0 // sole owner: reuse in place
			} else if end == len(data) {
				if !newBlock() { // block pinned by in-flight frames
					return
				}
			}
		} else {
			span := 4
			if end-start >= 4 {
				sz, _ := i2o.UnpackRecordWord(binary.LittleEndian.Uint32(data[start:]))
				span = 4 + sz
			}
			if start+span > len(data) {
				if !newBlock() { // partial record cannot complete in place
					return
				}
			}
		}
		n, err := pc.c.Read(data[end:])
		end += n
		if err != nil && n == 0 {
			return
		}
	}
}

// Stop implements pta.PeerTransport.  Frames still queued on send rings
// are released, not flushed: by the time the executive stops a transport
// their initiators have failed over or timed out already.
func (t *Transport) Stop() error {
	if t.closed.Swap(true) {
		return nil
	}
	close(t.stopc)
	if t.ln != nil {
		t.ln.Close()
	}
	t.mu.Lock()
	for _, p := range t.peers {
		p.q.Close()
	}
	for pc := range t.reading {
		pc.c.Close()
	}
	t.mu.Unlock()
	t.wg.Wait()
	return nil
}
