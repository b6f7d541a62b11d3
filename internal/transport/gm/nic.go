// Package gm simulates the Myrinet/GM message passing system used for the
// paper's measurements (§5): network interface cards with an on-board
// LANai processor, send descriptor rings, and receive buffers provided by
// the host.
//
// The paper's testbed was a Myricom M2M-PCI64 NIC running the GM 1.1.3
// MCP.  The simulation preserves what the benchmarks depend on: a fixed
// per-message cost (descriptor handling and the LANai service loop) plus a
// linear per-byte cost (the data crosses the "wire" by copy, once from the
// sender into a wire buffer and once from the wire into a receive buffer
// the destination host provided).  Latency therefore grows linearly with
// payload — the straight middle slope of figure 6 — and whatever the XDAQ
// framework adds on top shows up as a constant offset, exactly the
// methodology of the blackbox test.
//
// The API mirrors GM's shape: open a port on the fabric, provide receive
// buffers, send with optional gather, receive completed buffers.
package gm

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Port identifies a NIC on the fabric.
type Port uint16

// MTU is the largest message the simulated NIC carries: sized to hold any
// encoded I2O frame (the pool's 256 KB maximum block).
const MTU = 262144

// Ring depths.
const (
	// SendRingDepth bounds outstanding send descriptors; a full ring
	// blocks the sender (GM send token exhaustion).
	SendRingDepth = 64

	// RecvRingDepth bounds completed-but-unconsumed receives.
	RecvRingDepth = 1024

	// ProvideDepth bounds host-provided receive buffers.
	ProvideDepth = 1024
)

// Errors.
var (
	// ErrClosed reports use of a closed NIC.
	ErrClosed = errors.New("gm: closed")

	// ErrTooLarge reports a message above MTU.
	ErrTooLarge = errors.New("gm: message exceeds MTU")

	// ErrNoBuffers reports a Provide onto a full buffer ring.
	ErrNoBuffers = errors.New("gm: provide ring full")

	// ErrDuplicatePort reports opening a port twice.
	ErrDuplicatePort = errors.New("gm: port already open")

	// ErrUnknownPort reports a send to a port nobody opened.
	ErrUnknownPort = errors.New("gm: unknown port")
)

// DefaultBandwidth is the modelled link speed: 1.28 Gbit/s, the Myrinet
// generation of the paper's M2M-PCI64 testbed.
const DefaultBandwidth = 160e6 // bytes per second

// Fabric is the switch connecting NICs.
type Fabric struct {
	mu        sync.RWMutex
	nics      map[Port]*NIC
	nsPerByte float64
}

// NewFabric returns an empty fabric with the default link bandwidth.
func NewFabric() *Fabric {
	f := &Fabric{nics: make(map[Port]*NIC)}
	f.SetBandwidth(DefaultBandwidth)
	return f
}

// SetBandwidth models the link serialization speed in bytes per second
// (0 disables the delay, leaving only the copy cost).  The LANai loop
// busy-waits for the serialization time of each message, which is what
// makes latency grow linearly with payload — the straight slopes of
// figure 6.
func (f *Fabric) SetBandwidth(bytesPerSecond float64) {
	f.mu.Lock()
	if bytesPerSecond <= 0 {
		f.nsPerByte = 0
	} else {
		f.nsPerByte = 1e9 / bytesPerSecond
	}
	f.mu.Unlock()
}

// wireDelay returns the serialization time of n bytes.
func (f *Fabric) wireDelay(n int) time.Duration {
	f.mu.RLock()
	ns := f.nsPerByte
	f.mu.RUnlock()
	return time.Duration(float64(n) * ns)
}

// busyWait waits out a serialization delay in wall time.  It yields the
// processor on every check so that, unlike a hard spin, the modelled wire
// time never starves the executives sharing the machine — on a
// single-core host a hard spin would serialize the whole system behind
// the simulated link.  Delays below the timer-read granularity are
// skipped; the LANai would not context-switch for them either.
func busyWait(d time.Duration) {
	if d < 200*time.Nanosecond {
		return
	}
	end := time.Now().Add(d)
	for time.Now().Before(end) {
		runtime.Gosched()
	}
}

func (f *Fabric) lookup(p Port) *NIC {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.nics[p]
}

func (f *Fabric) detach(p Port) {
	f.mu.Lock()
	delete(f.nics, p)
	f.mu.Unlock()
}

// Open attaches a NIC at the given port and starts its LANai service loop.
func (f *Fabric) Open(p Port) (*NIC, error) {
	n := &NIC{
		fabric:   f,
		port:     p,
		sendRing: make(chan sendDesc, SendRingDepth),
		provided: make(chan providedBuf, ProvideDepth),
		recvRing: make(chan Recv, RecvRingDepth),
		wireFree: make(chan []byte, SendRingDepth),
		done:     make(chan struct{}),
	}
	f.mu.Lock()
	if _, dup := f.nics[p]; dup {
		f.mu.Unlock()
		return nil, fmt.Errorf("%w: %d", ErrDuplicatePort, p)
	}
	f.nics[p] = n
	f.mu.Unlock()
	n.wg.Add(1)
	go n.lanai()
	return n, nil
}

type sendDesc struct {
	dst  Port
	data []byte // wire buffer slice, owned by the sending NIC
	full []byte // full-capacity wire buffer for recycling
}

type providedBuf struct {
	buf   []byte
	token any
}

// Recv is one completed receive: the message landed in a buffer the host
// provided earlier.  Token is whatever the host attached at Provide time
// (the XDAQ peer transport attaches the pool buffer backing Buf).
type Recv struct {
	Src   Port
	Buf   []byte
	N     int
	Token any
}

// NIC is one simulated Myrinet interface.
type NIC struct {
	fabric   *Fabric
	port     Port
	sendRing chan sendDesc
	provided chan providedBuf
	recvRing chan Recv
	wireFree chan []byte
	done     chan struct{}
	wg       sync.WaitGroup
	closed   atomic.Bool
}

// RingDepth returns the number of send descriptors currently queued —
// outstanding send tokens, in GM terms.  The peer transport exports it as
// the <name>.ring.depth gauge.
func (n *NIC) RingDepth() int { return len(n.sendRing) }

func (n *NIC) takeWire() []byte {
	select {
	case b := <-n.wireFree:
		return b
	default:
		return make([]byte, MTU)
	}
}

func (n *NIC) recycleWire(b []byte) {
	select {
	case n.wireFree <- b:
	default:
	}
}

// Send transmits one contiguous message; equivalent to SendGather with a
// single segment.
func (n *NIC) Send(dst Port, data []byte) error {
	return n.SendGather(dst, data)
}

// SendGather copies the segments into one wire buffer and posts a send
// descriptor.  It blocks while the send ring is full (token exhaustion)
// and fails once the NIC is closed.
func (n *NIC) SendGather(dst Port, segs ...[]byte) error {
	if n.closed.Load() {
		return ErrClosed
	}
	total := 0
	for _, s := range segs {
		total += len(s)
	}
	if total > MTU {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, total)
	}
	wb := n.takeWire()
	off := 0
	for _, s := range segs {
		off += copy(wb[off:], s)
	}
	select {
	case n.sendRing <- sendDesc{dst: dst, data: wb[:total], full: wb}:
		return nil
	case <-n.done:
		n.recycleWire(wb)
		return ErrClosed
	}
}

// Provide hands the NIC a receive buffer.  Incoming messages land in
// provided buffers in FIFO order; a message larger than the buffer at the
// head of the ring is truncated to it (providers size buffers at MTU to
// avoid this).
func (n *NIC) Provide(buf []byte, token any) error {
	if n.closed.Load() {
		return ErrClosed
	}
	select {
	case n.provided <- providedBuf{buf: buf, token: token}:
		return nil
	default:
		return ErrNoBuffers
	}
}

// Receive blocks for the next completed receive; ok is false once the NIC
// is closed and drained.
func (n *NIC) Receive() (Recv, bool) {
	select {
	case r := <-n.recvRing:
		return r, true
	case <-n.done:
		select {
		case r := <-n.recvRing:
			return r, true
		default:
			return Recv{}, false
		}
	}
}

// TryReceive returns a completed receive without blocking.
func (n *NIC) TryReceive() (Recv, bool) {
	select {
	case r := <-n.recvRing:
		return r, true
	default:
		return Recv{}, false
	}
}

// lanai is the on-board processor loop: it services send descriptors,
// moves bytes across the fabric into a buffer provided by the destination
// host, and completes the receive there.
func (n *NIC) lanai() {
	defer n.wg.Done()
	for {
		select {
		case <-n.done:
			return
		case d := <-n.sendRing:
			n.transmit(d)
		}
	}
}

func (n *NIC) transmit(d sendDesc) {
	defer n.recycleWire(d.full)
	dst := n.fabric.lookup(d.dst)
	if dst == nil {
		return // unknown port: the frame is lost
	}
	busyWait(n.fabric.wireDelay(len(d.data)))
	var p providedBuf
	select {
	case p = <-dst.provided:
	case <-dst.done:
		return
	case <-n.done:
		return
	}
	c := copy(p.buf, d.data)
	r := Recv{Src: n.port, Buf: p.buf, N: c, Token: p.token}
	select {
	case dst.recvRing <- r:
	case <-dst.done:
	case <-n.done:
	}
}

// Close detaches the NIC from the fabric and stops the LANai loop.  It is
// idempotent.  After Close, ReclaimProvided recovers unused receive
// buffers so their owners can release them.
func (n *NIC) Close() {
	if n.closed.Swap(true) {
		return
	}
	n.fabric.detach(n.port)
	close(n.done)
	n.wg.Wait()
}

// ReclaimProvided returns one still-unused provided buffer after Close;
// ok is false when none remain.
func (n *NIC) ReclaimProvided() (buf []byte, token any, ok bool) {
	if !n.closed.Load() {
		return nil, nil, false
	}
	select {
	case p := <-n.provided:
		return p.buf, p.token, true
	default:
		return nil, nil, false
	}
}
