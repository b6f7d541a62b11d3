package executive

import (
	"sync"
	"time"

	"xdaq/internal/device"
	"xdaq/internal/i2o"
)

// The watchdog machinery used to cost one goroutine spawn and one
// time.NewTimer per dispatched frame.  This file replaces both with pools:
// wdRunner is a long-lived handler-runner goroutine the dispatch workers
// borrow per frame, and acquireTimer/releaseTimer recycle timers.  The
// runner pool is an explicit free list rather than a sync.Pool because a
// dropped sync.Pool entry would silently leak its goroutine; the explicit
// list lets Close terminate every idle runner.

// wdJob is one handler invocation handed to a runner.
type wdJob struct {
	d   *device.Device
	h   device.Handler
	ctx *device.Context
	m   *i2o.Message
}

// wdRunner is one reusable handler-runner goroutine.  in is unbuffered (a
// borrowed runner is always ready to receive); done is buffered so a
// runner whose watchdog expired can finish its stuck handler and park the
// result without blocking until the reaper collects it.
type wdRunner struct {
	e    *Executive
	in   chan wdJob
	done chan error
}

func (r *wdRunner) loop() {
	for j := range r.in {
		r.done <- r.e.safeCall(j.d, j.h, j.ctx, j.m)
	}
}

// maxIdleRunners bounds the free list; surplus runners returned beyond it
// are terminated.  Idle runners cost only a parked goroutine, so the bound
// merely caps the burst high-water mark.
const maxIdleRunners = 64

// runnerPool is the free list of idle watchdog runners.
type runnerPool struct {
	mu     sync.Mutex
	free   []*wdRunner
	closed bool
}

func (p *runnerPool) get(e *Executive) *wdRunner {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		r := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return r
	}
	p.mu.Unlock()
	r := &wdRunner{e: e, in: make(chan wdJob), done: make(chan error, 1)}
	go r.loop()
	return r
}

func (p *runnerPool) put(r *wdRunner) {
	p.mu.Lock()
	if p.closed || len(p.free) >= maxIdleRunners {
		p.mu.Unlock()
		close(r.in)
		return
	}
	p.free = append(p.free, r)
	p.mu.Unlock()
}

func (p *runnerPool) close() {
	p.mu.Lock()
	free := p.free
	p.free = nil
	p.closed = true
	p.mu.Unlock()
	for _, r := range free {
		close(r.in)
	}
}

// timerPool recycles watchdog and request-timeout timers.  Safe since Go
// 1.23: Reset on an expired, undrained timer discards any stale value, so
// a pooled timer cannot fire with a previous deadline.
var timerPool sync.Pool

func acquireTimer(d time.Duration) *time.Timer {
	if t, ok := timerPool.Get().(*time.Timer); ok {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

func releaseTimer(t *time.Timer) {
	t.Stop()
	timerPool.Put(t)
}
