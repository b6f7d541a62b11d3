package chaos

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"xdaq/internal/device"
	"xdaq/internal/i2o"
	"xdaq/internal/sgl"
)

// The harness plugs two device modules into every node:
//
//   - chaos.echo answers requests with a byte-exact copy of the payload,
//     written into a freshly allocated pool block.  Echo round trips
//     exercise the pending-reply table, request timeouts, and the full
//     reply return path (return proxies over remote fabrics).
//   - chaos.seq absorbs fire-and-forget numbered frames and records the
//     arrival order per (source node, worker) — the raw material of the
//     frame-conservation checker.
const (
	echoClass = "chaos.echo"
	seqClass  = "chaos.seq"

	fnEcho = 0x0C01
	fnSeq  = 0x0C02
)

// seqPayloadLen is the head of every sequence frame: source node (2),
// worker (2), sequence number (4), little endian.
const seqPayloadLen = 8

// seqLen is the payload size of sequence frame no: the head plus filler
// that cycles the wire size through 28, 128, 228 and 328 bytes.  The tcp
// transport's eager/rendezvous threshold moves within [64, 256], so one
// numbered stream always has frames on both lanes — which is what lets the
// conservation checker see a reordering or loss between the lanes, or
// across a redial of either.  The size is a function of the number alone:
// it draws nothing from the plan's random stream.
func seqLen(no uint32) int { return seqPayloadLen + int(no%4)*100 }

// plugWorkloadDevices builds and plugs the chaos devices on one node.
func plugWorkloadDevices(c *Cluster, n *Node) {
	echo := device.New(echoClass, 0)
	echo.Bind(fnEcho, func(ctx *device.Context, m *i2o.Message) error {
		// The HotDev round's service-time skew: stalling the handler
		// occupies a dispatcher, which is exactly the head-of-line
		// pressure the autopilot is expected to relieve by rescaling.
		if ns := n.hotNS.Load(); ns > 0 {
			time.Sleep(time.Duration(ns))
		}
		if len(m.Payload) == 0 {
			return device.ReplyIfExpected(ctx, m, nil)
		}
		// Copy the payload into a fresh pool block: the request frame is
		// recycled by the dispatcher as soon as this handler returns, while
		// the reply may still sit in a send ring — aliasing the request
		// bytes into the reply (what ReplyIfExpected would do) races with
		// that recycling on every asynchronous fabric.
		b, err := ctx.Host.Alloc(len(m.Payload))
		if err != nil {
			return err
		}
		body := b.Bytes()[:len(m.Payload)]
		copy(body, m.Payload)
		rep := i2o.NewReply(m)
		rep.Payload = body
		rep.AttachBuffer(b)
		return ctx.Host.Send(rep)
	})
	if _, err := n.Exec.Plug(echo); err != nil {
		panic(fmt.Sprintf("chaos: plug echo on node %d: %v", n.ID, err))
	}

	seq := device.New(seqClass, 0)
	seq.Bind(fnSeq, func(ctx *device.Context, m *i2o.Message) error {
		if len(m.Payload) < seqPayloadLen {
			c.violate("node %d: seq frame with %d-byte payload", n.ID, len(m.Payload))
			return nil
		}
		src := binary.LittleEndian.Uint16(m.Payload[0:2])
		worker := binary.LittleEndian.Uint16(m.Payload[2:4])
		no := binary.LittleEndian.Uint32(m.Payload[4:8])
		if fill := m.Payload[seqPayloadLen:]; len(m.Payload) != seqLen(no) ||
			bytes.Count(fill, []byte{byte(no)}) != len(fill) {
			c.violate("node %d: seq frame %d from node %d worker %d corrupted (%d-byte payload)",
				n.ID, no, src, worker, len(m.Payload))
			return nil
		}
		key := uint32(src)<<16 | uint32(worker)
		n.recvMu.Lock()
		n.recv[key] = append(n.recv[key], no)
		n.recvMu.Unlock()
		return nil
	})
	if _, err := n.Exec.Plug(seq); err != nil {
		panic(fmt.Sprintf("chaos: plug seq on node %d: %v", n.ID, err))
	}
}

// storm runs the randomized request/reply and fire-and-forget load on
// every node for d: each worker goroutine cycles over the peers sending a
// burst of numbered seq frames plus one blocking echo round trip.
func (c *Cluster) storm(d time.Duration) {
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for _, n := range c.Nodes {
		for w := 0; w < c.Opts.Workers; w++ {
			wg.Add(1)
			go func(n *Node, w int) {
				defer wg.Done()
				c.stormWorker(n, w, deadline)
			}(n, w)
		}
	}
	wg.Wait()
}

func (c *Cluster) stormWorker(n *Node, w int, deadline time.Time) {
	iter := uint32(0)
	for time.Now().Before(deadline) {
		iter++
		for _, p := range c.Nodes {
			if p == n {
				continue
			}
			for i := 0; i < 4; i++ {
				c.sendSeq(n, w, p.ID)
			}
			c.sendEcho(n, w, p.ID, iter)
		}
	}
}

// sendSeq fires one numbered frame at dst's chaos.seq device.  The
// sequence number is consumed only when the executive accepts the frame —
// exec.Send forwards proxies synchronously, so a nil return means the
// frame entered the fabric (it may still be dropped by an armed fault:
// that is exactly the loss the conservation checker accounts for).
func (c *Cluster) sendSeq(n *Node, w int, dst i2o.NodeID) {
	no := n.nextSeq[w][dst] + 1
	m, err := n.Exec.AllocMessage(seqLen(no))
	if err != nil {
		c.violate("node %d: alloc seq frame: %v", n.ID, err)
		return
	}
	binary.LittleEndian.PutUint16(m.Payload[0:2], uint16(n.ID))
	binary.LittleEndian.PutUint16(m.Payload[2:4], uint16(w))
	binary.LittleEndian.PutUint32(m.Payload[4:8], no)
	for i := seqPayloadLen; i < len(m.Payload); i++ {
		m.Payload[i] = byte(no)
	}
	m.Target = n.seqTID[dst]
	m.Initiator = i2o.TIDExecutive
	m.XFunction = fnSeq
	if err := n.Exec.Send(m); err != nil {
		// Rejected before reaching the fabric: the number is reused, so
		// successfully sent numbers stay contiguous from 1.
		n.seqErr.Add(1)
		if !c.lossy {
			c.violate("node %d worker %d: clean-run seq send to %d failed: %v", n.ID, w, dst, err)
		}
		return
	}
	n.nextSeq[w][dst] = no
	n.seqSent.Add(1)
}

// sendEcho runs one blocking echo round trip and verifies the reply is a
// byte-exact copy.  Errors are tolerated on lossy runs (faults or a killed
// transport); a payload mismatch is a protocol violation always.
func (c *Cluster) sendEcho(n *Node, w int, dst i2o.NodeID, iter uint32) {
	var token [12]byte
	binary.LittleEndian.PutUint16(token[0:2], uint16(n.ID))
	binary.LittleEndian.PutUint16(token[2:4], uint16(w))
	binary.LittleEndian.PutUint32(token[4:8], iter)
	binary.LittleEndian.PutUint32(token[8:12], uint32(dst))
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	rep, err := n.Exec.RequestContext(ctx, &i2o.Message{
		Target: n.echoTID[dst], Initiator: i2o.TIDExecutive,
		Function: i2o.FuncPrivate, Org: i2o.OrgXDAQ, XFunction: fnEcho,
		Payload: token[:],
	})
	cancel()
	if err != nil {
		n.echoErr.Add(1)
		if !c.lossy {
			c.violate("node %d worker %d: clean-run echo to %d failed: %v", n.ID, w, dst, err)
		}
		return
	}
	if !bytes.Equal(rep.Payload, token[:]) {
		c.violate("node %d worker %d: echo reply from %d corrupted: sent %x got %x",
			n.ID, w, dst, token[:], rep.Payload)
	}
	rep.Release()
	n.echoOK.Add(1)
}

// bulkRound runs one large echo round trip from every node to its ring
// successor.  On serializing fabrics (tcp, gm) the request body is a
// chained SGL gathered on the wire; on pointer-passing fabrics it is a
// flat pool block (an SGL cannot cross them, see i2o.AttachList).
func (c *Cluster) bulkRound(size int) {
	serializing := c.Opts.Fabric != "loopback"
	for i, n := range c.Nodes {
		dst := c.Nodes[(i+1)%len(c.Nodes)]
		data := make([]byte, size)
		for k := range data {
			data[k] = byte(k*131 + i)
		}
		m := i2o.AcquireMessage()
		m.Priority = i2o.PriorityDefault
		m.Function = i2o.FuncPrivate
		m.Org = i2o.OrgXDAQ
		m.XFunction = fnEcho
		m.Target = n.echoTID[dst.ID]
		m.Initiator = i2o.TIDExecutive
		if serializing {
			l, err := sgl.FromBytes(n.Exec.Allocator(), data, 8192)
			if err != nil {
				c.violate("node %d: build bulk SGL: %v", n.ID, err)
				m.Recycle()
				continue
			}
			m.AttachList(l)
		} else {
			b, err := n.Exec.Alloc(size)
			if err != nil {
				c.violate("node %d: alloc bulk body: %v", n.ID, err)
				m.Recycle()
				continue
			}
			body := b.Bytes()[:size]
			copy(body, data)
			m.Payload = body
			m.AttachBuffer(b)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		rep, err := n.Exec.RequestContext(ctx, m)
		cancel()
		if err != nil {
			n.echoErr.Add(1)
			if !c.lossy {
				c.violate("node %d: clean-run bulk echo (%d B) to %d failed: %v", n.ID, size, dst.ID, err)
			}
			continue
		}
		if !bytes.Equal(rep.Payload, data) {
			c.violate("node %d: bulk echo from %d corrupted: %d bytes sent, %d back, equal=false",
				n.ID, dst.ID, size, len(rep.Payload))
		}
		rep.Release()
		n.echoOK.Add(1)
	}
}
