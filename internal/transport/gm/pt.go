package gm

import (
	"fmt"
	"sync"
	"time"

	"xdaq/internal/i2o"
	"xdaq/internal/metrics"
	"xdaq/internal/pool"
	"xdaq/internal/probe"
	"xdaq/internal/pta"
	"xdaq/internal/transport/faults"
)

// PTName is the route name of the GM peer transport.
const PTName = "pt.gm"

// ProbeName is the whitebox probe for receive-side PT processing (the
// "PT GM processing" row of Table 1).  It covers frame decode and the
// replacement buffer allocation — not the GM library itself, matching the
// paper's note that the measured time excludes calls into Myrinet/GM.
const ProbeName = "pt.gm.processing"

// Transport adapts a NIC to the Peer Transport interface.  On send it
// gathers header, payload and padding straight from the frame (zero
// intermediate flattening); on receive it decodes in place in the pool
// block it provided to the NIC and immediately provides a fresh block —
// which is why, as in the paper, most PT processing time is frame
// allocation.
type Transport struct {
	nic    *NIC
	alloc  pool.Allocator
	name   string
	pProc  *probe.Point
	primed int

	mu     sync.RWMutex
	toPort map[i2o.NodeID]Port
	toNode map[Port]i2o.NodeID

	taskStop chan struct{}
	taskDone chan struct{}

	flt faults.Hook

	nSent      *metrics.Counter
	nRecv      *metrics.Counter
	nShortRing *metrics.Counter
}

// SetFaults installs a fault injector on the send path; nil removes it.
func (t *Transport) SetFaults(in *faults.Injector) { t.flt.Set(in) }

var _ pta.PeerTransport = (*Transport)(nil)

// Config configures a Transport.
type Config struct {
	// Name overrides the route name; defaults to PTName.
	Name string

	// Routes maps IOP identities to fabric ports, both directions.
	Routes map[i2o.NodeID]Port

	// Provide is how many receive blocks to keep posted; defaults to 32.
	Provide int

	// Probes receives the PT processing samples; defaults to
	// probe.Default.
	Probes *probe.Registry

	// Metrics receives the transport's counters (<name>.sent, .recv,
	// .shortRing); defaults to metrics.Default.
	Metrics *metrics.Registry
}

// NewTransport wraps a NIC.  The allocator supplies receive blocks (it
// should be the executive's pool so received frames are zero-copy
// executive frames).
func NewTransport(nic *NIC, alloc pool.Allocator, cfg Config) (*Transport, error) {
	if cfg.Name == "" {
		cfg.Name = PTName
	}
	if cfg.Provide <= 0 {
		cfg.Provide = 32
	}
	if cfg.Probes == nil {
		cfg.Probes = probe.Default
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.Default
	}
	t := &Transport{
		nic:    nic,
		alloc:  alloc,
		name:   cfg.Name,
		pProc:  cfg.Probes.Point(ProbeName),
		primed: cfg.Provide,
		toPort: make(map[i2o.NodeID]Port),
		toNode: make(map[Port]i2o.NodeID),

		nSent:      cfg.Metrics.Counter(cfg.Name + ".sent"),
		nRecv:      cfg.Metrics.Counter(cfg.Name + ".recv"),
		nShortRing: cfg.Metrics.Counter(cfg.Name + ".shortRing"),
	}
	cfg.Metrics.Func(cfg.Name+".ring.depth", func() int64 { return int64(nic.RingDepth()) })
	for node, port := range cfg.Routes {
		t.toPort[node] = port
		t.toNode[port] = node
	}
	for i := 0; i < cfg.Provide; i++ {
		if err := t.provideBlock(); err != nil {
			t.reclaim()
			return nil, err
		}
	}
	return t, nil
}

// AddRoute maps a node to a fabric port at runtime.
func (t *Transport) AddRoute(node i2o.NodeID, port Port) {
	t.mu.Lock()
	t.toPort[node] = port
	t.toNode[port] = node
	t.mu.Unlock()
}

func (t *Transport) provideBlock() error {
	b, err := t.alloc.Alloc(pool.MaxBlock)
	if err != nil {
		return fmt.Errorf("gm: provide receive block: %w", err)
	}
	if err := t.nic.Provide(b.Bytes(), b); err != nil {
		b.Release()
		return err
	}
	return nil
}

// Name implements pta.PeerTransport.
func (t *Transport) Name() string { return t.name }

// Send implements pta.PeerTransport: header + payload + padding gathered
// straight onto the wire, then the frame's pool buffer is released.
func (t *Transport) Send(dst i2o.NodeID, m *i2o.Message) error {
	copies, err := t.flt.Apply(dst, m)
	if copies == 0 {
		return err
	}
	t.mu.RLock()
	port, ok := t.toPort[dst]
	t.mu.RUnlock()
	if !ok {
		m.Release()
		return fmt.Errorf("gm: no port for %v", dst)
	}
	if copies == 2 {
		// A lost-ack retransmission: the same frame hits the wire twice.
		if err := t.transmit(port, m); err != nil {
			m.Release()
			return err
		}
		t.nSent.Inc()
	}
	if err := t.transmit(port, m); err != nil {
		// The buffer is released but the struct stays intact, so the
		// agent's retry policy can re-attach and resend the frame.
		m.Release()
		return err
	}
	m.Recycle()
	t.nSent.Inc()
	return nil
}

// transmit serializes one frame onto the wire: header + payload (flat or
// gathered segment chain) + padding.  It neither releases nor recycles m.
func (t *Transport) transmit(port Port, m *i2o.Message) error {
	var hdr [i2o.PrivateHeaderSize]byte
	n, err := m.EncodeHeader(hdr[:])
	if err != nil {
		return err
	}
	if m.List() != nil {
		// Chained payload: gather every segment straight onto the wire —
		// the SGL path of the paper's §4, no flattening copy.
		vp := vecPool.Get().(*[][]byte)
		vec := append((*vp)[:0], hdr[:n])
		vec = m.AppendBody(vec)
		err = t.nic.SendGather(port, vec...)
		for i := range vec {
			vec[i] = nil
		}
		*vp = vec[:0]
		vecPool.Put(vp)
	} else {
		pad := i2o.PadBytes(len(m.Payload))
		err = t.nic.SendGather(port, hdr[:n], m.Payload, i2o.ZeroPad[:pad])
	}
	return err
}

// vecPool recycles gather vectors for segmented sends; the common
// flat-payload send builds its three-element vector on the stack instead.
var vecPool = sync.Pool{New: func() any {
	v := make([][]byte, 0, 8)
	return &v
}}

// handle turns one completed receive into an executive frame and reposts a
// fresh block.
func (t *Transport) handle(r Recv, fn pta.Deliver) error {
	var start time.Time
	probing := probe.Enabled()
	if probing {
		start = time.Now()
	}
	t.mu.RLock()
	src, known := t.toNode[r.Src]
	t.mu.RUnlock()
	buf, isBlock := r.Token.(*pool.Buffer)
	if !known {
		if isBlock {
			buf.Release()
		}
		return fmt.Errorf("gm: frame from unmapped port %d", r.Src)
	}
	m, _, err := i2o.DecodeAcquired(r.Buf[:r.N])
	if err != nil {
		if isBlock {
			buf.Release()
		}
		return fmt.Errorf("gm: undecodable frame from %v: %w", src, err)
	}
	if isBlock {
		m.AttachBuffer(buf)
	}
	// Keep the receive ring populated; this allocation dominates PT
	// processing time, as the whitebox test shows.  A failure here means
	// the ring runs one block short until the next successful receive.
	if err := t.provideBlock(); err != nil {
		t.nShortRing.Inc()
		m.Release()
		return err
	}
	t.nRecv.Inc()
	if probing {
		t.pProc.Since(start)
	}
	return fn(src, m)
}

// Start implements pta.PeerTransport (task mode): a dedicated goroutine
// blocks on the NIC receive ring.
func (t *Transport) Start(fn pta.Deliver) error {
	t.mu.Lock()
	if t.taskStop != nil {
		t.mu.Unlock()
		return fmt.Errorf("gm: %s already started", t.name)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	t.taskStop = stop
	t.taskDone = done
	t.mu.Unlock()

	go func() {
		defer close(done)
		for {
			r, ok := t.nic.Receive()
			if !ok {
				return
			}
			if err := t.handle(r, fn); err != nil {
				select {
				case <-stop:
					return
				default:
				}
			}
		}
	}()
	return nil
}

// Poll implements pta.PeerTransport (polling mode).
func (t *Transport) Poll(fn pta.Deliver, budget int) int {
	n := 0
	for n < budget {
		r, ok := t.nic.TryReceive()
		if !ok {
			break
		}
		if err := t.handle(r, fn); err == nil {
			n++
		}
	}
	return n
}

// Stop implements pta.PeerTransport: closes the NIC, stops the task loop
// and releases all still-provided pool blocks.
func (t *Transport) Stop() error {
	t.nic.Close()
	t.mu.Lock()
	done := t.taskDone
	t.taskStop = nil
	t.taskDone = nil
	t.mu.Unlock()
	if done != nil {
		<-done
	}
	t.reclaim()
	return nil
}

// reclaim drains provided and completed-but-unconsumed receive blocks
// after the NIC closed.
func (t *Transport) reclaim() {
	for {
		_, token, ok := t.nic.ReclaimProvided()
		if !ok {
			break
		}
		if b, isBlock := token.(*pool.Buffer); isBlock {
			b.Release()
		}
	}
	for {
		r, ok := t.nic.TryReceive()
		if !ok {
			break
		}
		if b, isBlock := r.Token.(*pool.Buffer); isBlock {
			b.Release()
		}
	}
}
