package tcp

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"xdaq/internal/device"
	"xdaq/internal/i2o"
	"xdaq/internal/pool"
	"xdaq/internal/queue"
)

// sendRetained enqueues one pooled frame whose payload aliases blk,
// spinning through ring backpressure.  It is the benchmark hot path and
// must not allocate: the frame struct comes from the i2o free list (the
// writer recycles it), the payload is a retained shared block, and a full
// ring returns the prebuilt ErrRingFull sentinel.
func sendRetained(b *testing.B, tr *Transport, blk *pool.Buffer, payload []byte) {
	m := i2o.AcquireMessage()
	m.Target, m.Initiator = 1, i2o.TIDExecutive
	m.Function, m.Org, m.XFunction = i2o.FuncPrivate, i2o.OrgXDAQ, 1
	blk.Retain()
	m.AttachBuffer(blk)
	m.Payload = payload
	for {
		err := tr.Send(2, m)
		if err == nil {
			return
		}
		if !errors.Is(err, queue.ErrFull) {
			b.Fatal(err)
		}
		// Send released our block reference; re-arm the frame and retry
		// once the writer has drained some of the ring.
		runtime.Gosched()
		blk.Retain()
		m.AttachBuffer(blk)
	}
}

func waitDelivered(b *testing.B, c *atomic.Uint64, want uint64) {
	deadline := time.Now().Add(30 * time.Second)
	for c.Load() < want {
		if time.Now().After(deadline) {
			b.Fatalf("delivered %d of %d frames", c.Load(), want)
		}
		runtime.Gosched()
	}
}

// BenchmarkRemoteSend measures the eager (coalescing) send path end to
// end over a real socket pair: enqueue on the ring, vectored write,
// streaming pooled decode, delivery.  The 64 B payload keeps the wire
// size well under DefaultThreshold so every frame rides the ring; the
// bulk lane has its own gate in BenchmarkRemoteSendRendezvous.  The
// steady state must not allocate on either side — the acceptance gate of
// the zero-copy data path.
func BenchmarkRemoteSend(b *testing.B) {
	var recvd atomic.Uint64
	send, _ := rawPair(b, Config{}, func(_ i2o.NodeID, m *i2o.Message) error {
		m.Recycle()
		recvd.Add(1)
		return nil
	})
	alloc := pool.NewTable(0)
	blk, err := alloc.Alloc(64)
	if err != nil {
		b.Fatal(err)
	}
	payload := blk.Bytes()
	for i := range payload {
		payload[i] = byte(i)
	}
	// Warm up: fill the frame free list, grow the writer's scratch
	// buffers and the fd's iovec cache.
	for i := 0; i < 2048; i++ {
		sendRetained(b, send, blk, payload)
	}
	waitDelivered(b, &recvd, 2048)

	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sendRetained(b, send, blk, payload)
	}
	waitDelivered(b, &recvd, 2048+uint64(b.N))
	b.StopTimer()
}

// BenchmarkRemoteSendRendezvous is BenchmarkRemoteSend for the bulk lane: a
// 16 KiB payload, far above any threshold, so every frame takes the direct
// vectored write that bypasses the coalescing arena.  Steady state must not
// allocate — the rendezvous path shares the zero-alloc acceptance gate with
// the eager path.
func BenchmarkRemoteSendRendezvous(b *testing.B) {
	var recvd atomic.Uint64
	send, _ := rawPair(b, Config{}, func(_ i2o.NodeID, m *i2o.Message) error {
		m.Recycle()
		recvd.Add(1)
		return nil
	})
	alloc := pool.NewTable(0)
	blk, err := alloc.Alloc(16384)
	if err != nil {
		b.Fatal(err)
	}
	payload := blk.Bytes()
	for i := range payload {
		payload[i] = byte(i)
	}
	for i := 0; i < 512; i++ {
		sendRetained(b, send, blk, payload)
	}
	waitDelivered(b, &recvd, 512)

	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sendRetained(b, send, blk, payload)
	}
	waitDelivered(b, &recvd, 512+uint64(b.N))
	b.StopTimer()
}

// BenchmarkRemoteThreshold sweeps the eager/rendezvous switch point across
// payload sizes and sender counts — the measurement behind the threshold
// choice in doc/performance.md.  thr=eager pins every frame to the
// coalescing ring (a threshold no frame reaches), thr=rv forces every frame
// onto the direct lane (threshold 1), and the middle setting splits at 512
// wire bytes.
func BenchmarkRemoteThreshold(b *testing.B) {
	var recvd atomic.Uint64
	fn := func(_ i2o.NodeID, m *i2o.Message) error {
		m.Recycle()
		recvd.Add(1)
		return nil
	}
	transports := []struct {
		name string
		tr   *Transport
	}{
		{"eager", nil},
		{"512", nil},
		{"rv", nil},
	}
	for i, thr := range []int{i2o.MaxWireSize + 1, 512, 1} {
		transports[i].tr, _ = rawPair(b, Config{}, fn)
		transports[i].tr.SetThreshold(thr)
	}
	alloc := pool.NewTable(0)
	blk, err := alloc.Alloc(4096)
	if err != nil {
		b.Fatal(err)
	}
	for i := range blk.Bytes() {
		blk.Bytes()[i] = byte(i)
	}
	for _, tc := range transports {
		for _, size := range []int{256, 4096} {
			for _, senders := range []int{1, 4} {
				name := fmt.Sprintf("size=%dB/thr=%s/senders=%d", size, tc.name, senders)
				b.Run(name, func(b *testing.B) {
					payload := blk.Bytes()[:size]
					base := recvd.Load()
					b.SetBytes(int64(size))
					b.SetParallelism(senders)
					b.ResetTimer()
					b.RunParallel(func(pb *testing.PB) {
						for pb.Next() {
							sendRetained(b, tc.tr, blk, payload)
						}
					})
					waitDelivered(b, &recvd, base+uint64(b.N))
					b.StopTimer()
				})
			}
		}
	}
}

// BenchmarkRemoteRoundTrip measures request/reply latency through the full
// stack (executive, agent, transport, socket, echo device and back) across
// payload sizes — the remote analogue of the paper's figure 6 sweep.
func BenchmarkRemoteRoundTrip(b *testing.B) {
	a, bn := connectPair(b)
	d := device.New("echo", 0)
	d.Bind(1, func(ctx *device.Context, m *i2o.Message) error {
		return device.ReplyIfExpected(ctx, m, m.Payload)
	})
	if _, err := bn.exec.Plug(d); err != nil {
		b.Fatal(err)
	}
	remote, err := a.exec.Discover(2, "echo", 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range []int{1, 64, 256, 1024, 4096, 16384, 65536} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			payload := make([]byte, size)
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := a.exec.Request(&i2o.Message{
					Target: remote, Initiator: i2o.TIDExecutive,
					Function: i2o.FuncPrivate, Org: i2o.OrgXDAQ, XFunction: 1,
					Payload: payload,
				})
				if err != nil {
					b.Fatal(err)
				}
				rep.Release()
			}
		})
	}
}

// BenchmarkRemoteThroughput drives four concurrent senders through one
// connection and measures delivered payload throughput.  The small-frame
// cases are where coalescing pays: many frames per vectored write instead
// of one syscall each.  (The committed BENCH_remote.json keeps the rows of
// the retired unbatched baseline this used to run against.)
func BenchmarkRemoteThroughput(b *testing.B) {
	const senders = 4
	var recvd atomic.Uint64
	fn := func(_ i2o.NodeID, m *i2o.Message) error {
		m.Recycle()
		recvd.Add(1)
		return nil
	}
	batched, _ := rawPair(b, Config{}, fn)

	alloc := pool.NewTable(0)
	blk, err := alloc.Alloc(16384)
	if err != nil {
		b.Fatal(err)
	}
	for i := range blk.Bytes() {
		blk.Bytes()[i] = byte(i)
	}
	for _, size := range []int{64, 256, 1024, 4096, 16384} {
		b.Run(fmt.Sprintf("batched/%dB/senders=%d", size, senders), func(b *testing.B) {
			payload := blk.Bytes()[:size]
			base := recvd.Load()
			b.SetBytes(int64(size))
			b.SetParallelism(senders)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					sendRetained(b, batched, blk, payload)
				}
			})
			// Throughput is delivered frames, not enqueued ones: the
			// clock stops when the receiver has seen every frame.
			waitDelivered(b, &recvd, base+uint64(b.N))
			b.StopTimer()
		})
	}
}
