package sgl

import (
	"bytes"
	"testing"

	"xdaq/internal/i2o"
	"xdaq/internal/pool"
)

// FuzzSGLRoundTrip drives the full chained-payload path the wire transports
// use: build a list from arbitrary bytes at an arbitrary segment size,
// attach it to a frame, gather the body with AppendBody (header + segments
// + padding, exactly what tcp writev and gm SendGather put on the wire),
// and check the gathered bytes equal the flat Encode of the same payload —
// then decode the wire image back and compare contents.  The seed corpus
// mirrors chaos-harness bulk transfers: multi-segment bodies at small
// segment sizes, single-segment fast paths, empty payloads.
func FuzzSGLRoundTrip(f *testing.F) {
	f.Add([]byte{}, 1)
	f.Add([]byte("hello, cluster"), 4)
	f.Add(bytes.Repeat([]byte{0xAB}, 300), 128)    // chaos bulk: 3-segment chain
	f.Add(bytes.Repeat([]byte("evt:"), 64), 1<<20) // clamped to one MaxBlock segment
	f.Add([]byte{1, 2, 3}, 2)                      // odd final segment + wire padding
	f.Fuzz(func(t *testing.T, data []byte, segSize int) {
		if len(data) > 1<<16 {
			data = data[:1<<16]
		}
		alloc := pool.NewTable(0)
		l, err := FromBytes(alloc, data, segSize)
		if err != nil {
			t.Fatalf("FromBytes(%d bytes, seg %d): %v", len(data), segSize, err)
		}

		if l.Len() != len(data) {
			t.Fatalf("Len() = %d, want %d", l.Len(), len(data))
		}
		if got := flat(l); !bytes.Equal(got, data) {
			t.Fatalf("CopyTo round trip differs")
		}

		// Frame with the list attached, gathered segment-per-iovec.
		m := i2o.AcquireMessage()
		m.Flags = i2o.FlagReplyExpected
		m.Priority = i2o.PriorityNormal
		m.Target, m.Initiator = 0x021, 0x111
		m.Function, m.XFunction, m.Org = i2o.FuncPrivate, 0x0142, 0x049A
		m.AttachList(l)

		var hdr [i2o.PrivateHeaderSize]byte
		hn, err := m.EncodeHeader(hdr[:])
		if err != nil {
			t.Fatalf("EncodeHeader: %v", err)
		}
		var gathered []byte
		gathered = append(gathered, hdr[:hn]...)
		for _, seg := range m.AppendBody(nil) {
			gathered = append(gathered, seg...)
		}

		// The same payload sent flat must produce identical wire bytes.
		flat := &i2o.Message{
			Flags: m.Flags, Priority: m.Priority,
			Target: m.Target, Initiator: m.Initiator,
			Function: m.Function, XFunction: m.XFunction, Org: m.Org,
			Payload: data,
		}
		want := make([]byte, flat.WireSize())
		if _, err := flat.Encode(want); err != nil {
			t.Fatalf("flat Encode: %v", err)
		}
		if !bytes.Equal(gathered, want) {
			t.Fatalf("gathered wire image differs from flat encode (%d vs %d bytes)",
				len(gathered), len(want))
		}

		// And the wire image must decode back to the original payload.
		dec, _, err := i2o.DecodeAcquired(gathered)
		if err != nil {
			t.Fatalf("decode of gathered frame: %v", err)
		}
		if !bytes.Equal(dec.Payload, data) {
			t.Fatalf("decoded payload differs from original")
		}
		dec.Recycle()

		// Releasing the frame releases the whole chain: no leaked blocks.
		m.Recycle()
		if in := alloc.Stats().InUse; in != 0 {
			t.Fatalf("leaked %d pool blocks", in)
		}
	})
}
