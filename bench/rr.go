package main

import (
	"bytes"
	"context"
	"time"

	"xdaq"
)

// rr is the paper's ping-pong: one client goroutine calls an echo device
// on the other node and waits for the reply before the next call.
type rr struct {
	cfg    config
	tcp    bool
	warm   int // calls per setup
	nodes_ []*xdaq.Node
	target xdaq.TID

	// pattern is rrSize+255 seeded bytes; call i sends the rrSize bytes at
	// offset i%256, so consecutive calls differ and a stale reply shows.
	pattern []byte
	calls   uint64
}

const (
	rrSize  = 64
	rrXFunc = 1
)

func newRR(cfg config, tcp bool, warm int) workload {
	return &rr{cfg: cfg, tcp: tcp, warm: warm, pattern: seededBytes(cfg.seed, 0, rrSize+255)}
}

func (w *rr) nodes() []*xdaq.Node { return w.nodes_ }
func (w *rr) frameSize() int      { return rrSize }
func (w *rr) close()              { closeNodes(w.nodes_) }

func (w *rr) setup() error {
	nodes, err := newNodes(2, 5*time.Second)
	if err != nil {
		return err
	}
	w.nodes_ = nodes
	fabric := xdaq.Loopback()
	if w.tcp {
		fabric = xdaq.TCP()
	}
	if err := xdaq.Connect(fabric, xdaq.Nodes(nodes...)); err != nil {
		return err
	}
	echo := xdaq.NewDevice("echo", 0)
	corrupt := w.cfg.corruptEcho
	echo.Bind(rrXFunc, func(ctx *xdaq.Context, m *xdaq.Message) error {
		if corrupt && len(m.Payload) > 0 {
			m.Payload[len(m.Payload)/2] ^= 0xFF
		}
		return xdaq.ReplyIfExpected(ctx, m, m.Payload)
	})
	if _, err := nodes[1].Plug(echo); err != nil {
		return err
	}
	if w.target, err = nodes[0].Discover(2, "echo", 0); err != nil {
		return err
	}
	for i, n := 0, w.cfg.scaled(w.warm, 100); i < n; i++ {
		w.call(context.Background(), nil)
	}
	return nil
}

// call makes one checked round trip and reports whether it succeeded.
// Sampled ops of the traced run take CallContext apart into the same
// steps, with a span around each.
func (w *rr) call(ctx context.Context, rec *recorder) bool {
	a := w.nodes_[0]
	op := w.calls
	w.calls++
	off := int(op % 256)
	payload := w.pattern[off : off+rrSize]
	if !rec.sampled(op) {
		reply, err := a.CallContext(ctx, w.target, rrXFunc, payload)
		return err == nil && bytes.Equal(reply, payload)
	}
	root := rec.begin("op", op, 0)
	defer rec.end(root)
	s := rec.begin("alloc", op, root)
	m, err := a.Exec.AllocMessage(rrSize)
	if err != nil {
		rec.end(s)
		return false
	}
	s = rec.step(s, "fill", op, root)
	copy(m.Payload, payload)
	m.Target = w.target
	m.Initiator = xdaq.TIDExecutive
	m.XFunction = rrXFunc
	s = rec.step(s, "request", op, root)
	rep, err := a.Exec.RequestContext(ctx, m)
	if err != nil {
		rec.end(s)
		return false
	}
	s = rec.step(s, "copy", op, root)
	reply := append([]byte(nil), rep.Payload...)
	s = rec.step(s, "recycle", op, root)
	rep.Recycle()
	s = rec.step(s, "verify", op, root)
	ok := bytes.Equal(reply, payload)
	rec.end(s)
	return ok
}

func (w *rr) measure(d time.Duration, tr *tracer) (measured, error) {
	var rec *recorder
	if tr != nil {
		rec = tr.recorder()
	}
	ctx := context.Background()
	// One sample per call.  The array holds a million calls a second,
	// twice what the loopback fabric reaches here; sampling stops when
	// it is full.
	res := measured{
		lat:   make([]int32, 0, int(d.Seconds()*1e6)+1024),
		cuts:  make([]int, 0, windowsPerRig),
		rates: make([]float64, 0, windowsPerRig),
	}
	for i := 0; i < cap(res.lat); i += 1024 {
		res.lat[:cap(res.lat)][i] = 0 // fault the pages in before the clock starts
	}

	window := d / windowsPerRig
	start := time.Now()
	prev, winStart, winOps := time.Duration(0), time.Duration(0), uint64(0)
	for len(res.cuts) < windowsPerRig {
		ok := w.call(ctx, rec)
		now := time.Since(start)
		res.attempted++
		if !ok {
			res.failed++
		}
		if len(res.lat) < cap(res.lat) {
			res.lat = append(res.lat, int32(now-prev))
		}
		prev = now
		winOps++
		if now-winStart >= window {
			res.cuts = append(res.cuts, len(res.lat))
			res.rates = append(res.rates, float64(winOps)/(now-winStart).Seconds())
			winStart, winOps = now, 0
		}
	}
	res.ops = res.attempted
	return res, nil
}
