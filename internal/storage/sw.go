package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"xdaq/internal/chain"
	"xdaq/internal/device"
	"xdaq/internal/i2o"
	"xdaq/internal/metrics"
	"xdaq/internal/pool"
	"xdaq/internal/pta"
	"xdaq/internal/sgl"
)

// ClassSW is the storage writer device class name.
const ClassSW = "storage.sw"

// SW is a storage writer device: one stripe of the parallel store.
// Builder units (or the replayer) stream events to it as XFuncWrite
// chain transfers; each completed transfer is appended to the attached
// segment Writer straight from the reassembled SGL chain, and answered
// with a one-way WriteAck.  A full writer nacks AckFull, which the
// sender's retry turns into end-to-end backpressure.
type SW struct {
	instance int
	dev      *device.Device
	reasm    *chain.Reassembler

	mu  sync.Mutex
	w   *Writer
	ctx *device.Context

	killed atomic.Bool
	nAcked atomic.Uint64
}

// NewSW creates storage writer `instance`.  Attach a segment Writer
// before (or after) plugging; transfers arriving with no writer attached
// are refused with AckFail.
func NewSW(instance int, alloc pool.Allocator) *SW {
	s := &SW{instance: instance}
	s.dev = device.New(ClassSW, instance)
	s.reasm = chain.NewReassembler(alloc, s.onWrite)
	s.dev.Bind(XFuncWrite, s.reasm.Handler)
	s.dev.OnPlugged = func(ctx *device.Context) error {
		s.mu.Lock()
		s.ctx = ctx
		s.mu.Unlock()
		s.register(ctx)
		return nil
	}
	return s
}

// Device returns the module to plug into an executive.
func (s *SW) Device() *device.Device { return s.dev }

// Attach installs (or swaps) the segment writer and clears the killed
// flag — the reopen half of crash recovery.
func (s *SW) Attach(w *Writer) {
	s.mu.Lock()
	s.w = w
	s.mu.Unlock()
	s.killed.Store(false)
}

// Writer returns the attached segment writer (nil when none).
func (s *SW) Writer() *Writer {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w
}

// Kill simulates the writer process dying mid-stripe: the segment is
// crashed (torn tail, no footer) and the device goes silent — incoming
// transfers are dropped without an ack, exactly what a dead peer looks
// like to the senders.
func (s *SW) Kill() {
	s.mu.Lock()
	w := s.w
	s.mu.Unlock()
	s.killed.Store(true)
	if w != nil {
		w.Crash()
	}
}

// Reopen recovers from a Kill: the segment is reopened in place (torn
// tail truncated, duplicate filter reseeded) and the device acks again.
// The caller replays the stream to restore whatever the crash lost.
func (s *SW) Reopen() error {
	s.mu.Lock()
	old := s.w
	s.mu.Unlock()
	if old == nil {
		return fmt.Errorf("storage: sw %d has no writer to reopen", s.instance)
	}
	w, err := Open(old.Options())
	if err != nil {
		return err
	}
	s.Attach(w)
	return nil
}

// Stats snapshots the attached writer's counters (zero when none).
func (s *SW) Stats() Stats {
	s.mu.Lock()
	w := s.w
	s.mu.Unlock()
	if w == nil {
		return Stats{}
	}
	return w.Stats()
}

// Acked counts the writes acked as stored or duplicate.
func (s *SW) Acked() uint64 { return s.nAcked.Load() }

// tailSource exposes a transfer's payload (after the 8-byte event id)
// to the writer's gather copy, so the SGL chain lands in the arena with
// no intermediate flat buffer.
type tailSource struct{ data *sgl.List }

func (t tailSource) CopyTo(off int, dst []byte) (int, error) {
	return t.data.CopyTo(off+8, dst)
}

// onWrite handles one completed write transfer.
func (s *SW) onWrite(t *chain.Transfer) error {
	defer t.Data.Release()
	if t.Data.Len() < 8+1 {
		return fmt.Errorf("%w: write transfer of %d bytes", i2o.ErrTruncated, t.Data.Len())
	}
	var hdr [8]byte
	if _, err := t.Data.CopyTo(0, hdr[:]); err != nil {
		return err
	}
	event := binary.LittleEndian.Uint64(hdr[:])
	if s.killed.Load() {
		return nil // dead writers don't ack; the sender's replay heals this
	}
	s.mu.Lock()
	w, ctx := s.w, s.ctx
	s.mu.Unlock()

	status := AckStored
	if w == nil {
		status = AckFail
	} else {
		switch err := w.Append(event, t.Data.Len()-8, tailSource{t.Data}); {
		case err == nil:
		case errors.Is(err, ErrDuplicate):
			status = AckDup
		case errors.Is(err, pta.ErrTransient):
			status = AckFull
		default:
			status = AckFail
		}
	}
	if status == AckStored || status == AckDup {
		s.nAcked.Add(1)
	}
	return s.ack(ctx, t.Initiator, WriteAck{Event: event, Status: status})
}

// ack sends the one-way reply for a write transfer.
func (s *SW) ack(ctx *device.Context, to i2o.TID, a WriteAck) error {
	if ctx == nil {
		return device.ErrNotPlugged
	}
	buf, err := ctx.Host.Alloc(writeAckSize)
	if err != nil {
		return err
	}
	body := buf.Bytes()
	a.Encode(body[:0])
	m := &i2o.Message{
		Priority:  i2o.PriorityHigh,
		Target:    to,
		Initiator: s.dev.TID(),
		Function:  i2o.FuncPrivate,
		Org:       i2o.OrgXDAQ,
		XFunction: XFuncWriteAck,
		Payload:   body,
	}
	m.AttachBuffer(buf)
	return ctx.Host.Send(m)
}

// register publishes the storage.* gauges on hosts that carry a metrics
// registry (the executive does; bare test fakes need not).
func (s *SW) register(ctx *device.Context) {
	host, ok := ctx.Host.(interface{ Metrics() *metrics.Registry })
	if !ok {
		return
	}
	reg := host.Metrics()
	if reg == nil {
		return
	}
	stat := func(pick func(Stats) uint64) func() int64 {
		return func() int64 { return int64(pick(s.Stats())) }
	}
	reg.Func("storage.bytes", stat(func(st Stats) uint64 { return st.Bytes }))
	reg.Func("storage.events", stat(func(st Stats) uint64 { return st.Events }))
	reg.Func("storage.stripe.depth", stat(func(st Stats) uint64 { return st.Events + st.Recovered }))
	reg.Func("storage.stalls", stat(func(st Stats) uint64 { return st.Stalls }))
	reg.Func("storage.dups", stat(func(st Stats) uint64 { return st.Dups }))
	reg.Func("storage.flushes", stat(func(st Stats) uint64 { return st.Flushes }))
	reg.Func("storage.recovered", stat(func(st Stats) uint64 { return st.Recovered }))
	reg.Func("storage.truncations", stat(func(st Stats) uint64 { return st.Truncations }))
}
