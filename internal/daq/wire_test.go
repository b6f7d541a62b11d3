package daq

import (
	"bytes"
	"testing"
)

// EncodeFragRep renders r as a frame payload, through the same header and
// fragment writers the readout unit and aggregator fill their reply
// buffers with.  It is the oracle of the round-trip tests and the fuzzer.
func EncodeFragRep(r FragRep) []byte {
	total := 0
	for _, f := range r.Frags {
		total += len(f.Data)
	}
	b := make([]byte, EncodedFragRepLen(len(r.Frags), total))
	off := AppendFragRepHeader(b, r.Version, r.First, r.Count, uint32(len(r.Frags)))
	for _, f := range r.Frags {
		dataOff, next := AppendFragment(b, off, f.RU, f.Event, len(f.Data))
		copy(b[dataOff:], f.Data)
		off = next
	}
	return b
}

func TestFragReqRoundTrip(t *testing.T) {
	in := FragReq{Version: 7, BU: 3, First: 129, Count: 8, Skip: 0b1010}
	out, err := DecodeFragReq(EncodeFragReq(in))
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: %+v != %+v", out, in)
	}
}

func TestFragReqRejectsBadRecords(t *testing.T) {
	good := FragReq{Version: 1, BU: 0, First: 1, Count: 4}
	cases := map[string][]byte{
		"short":     EncodeFragReq(good)[:12],
		"long":      append(EncodeFragReq(good), 0),
		"event0":    EncodeFragReq(FragReq{First: 0, Count: 1}),
		"count0":    EncodeFragReq(FragReq{First: 1, Count: 0}),
		"count>64":  EncodeFragReq(FragReq{First: 1, Count: 65}),
		"wide skip": EncodeFragReq(FragReq{First: 1, Count: 4, Skip: 1 << 4}),
	}
	for name, p := range cases {
		if _, err := DecodeFragReq(p); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}

func TestFragRepRoundTrip(t *testing.T) {
	in := FragRep{
		Version: 3, First: 9, Count: 2,
		Frags: []Fragment{
			{RU: 0, Event: 9, Data: []byte{1, 2, 3}},
			{RU: 1, Event: 10, Data: nil},
			{RU: 1, Event: 9, Data: []byte{4}},
		},
	}
	p := EncodeFragRep(in)
	out, err := DecodeFragRep(p)
	if err != nil {
		t.Fatal(err)
	}
	if out.Version != in.Version || out.First != in.First || out.Count != in.Count ||
		len(out.Frags) != len(in.Frags) {
		t.Fatalf("header: %+v", out)
	}
	for i := range in.Frags {
		if out.Frags[i].RU != in.Frags[i].RU || out.Frags[i].Event != in.Frags[i].Event ||
			!bytes.Equal(out.Frags[i].Data, in.Frags[i].Data) {
			t.Fatalf("fragment %d: %+v", i, out.Frags[i])
		}
	}
	if !bytes.Equal(EncodeFragRep(out), p) {
		t.Fatal("re-encode differs")
	}
}

func TestFragRepRejectsBadRecords(t *testing.T) {
	good := EncodeFragRep(FragRep{Version: 1, First: 1, Count: 2,
		Frags: []Fragment{{RU: 0, Event: 1, Data: []byte{9}}}})
	outside := EncodeFragRep(FragRep{Version: 1, First: 1, Count: 2,
		Frags: []Fragment{{RU: 0, Event: 3, Data: nil}}})
	cases := map[string][]byte{
		"short header":  good[:10],
		"short frag":    good[:len(good)-1],
		"trailing":      append(append([]byte(nil), good...), 0),
		"event outside": outside,
	}
	for name, p := range cases {
		if _, err := DecodeFragRep(p); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}

func TestAllocRoundTrips(t *testing.T) {
	if out, err := DecodeAllocReq(EncodeAllocReq(AllocReq{BU: 12})); err != nil || out.BU != 12 {
		t.Fatalf("alloc req: %+v %v", out, err)
	}
	reps := []AllocRep{
		{Status: AllocGrant, Version: 2, First: 33, Count: 8, Skip: 0b0110},
		{Status: AllocRetry, Version: 5},
		{Status: AllocOver, Version: 9},
	}
	for _, in := range reps {
		out, err := DecodeAllocRep(EncodeAllocRep(in))
		if err != nil {
			t.Fatalf("%+v: %v", in, err)
		}
		if out != in {
			t.Fatalf("round trip: %+v != %+v", out, in)
		}
	}
	bad := map[string][]byte{
		"status":     EncodeAllocRep(AllocRep{Status: 9}),
		"grant none": EncodeAllocRep(AllocRep{Status: AllocGrant, First: 1, Count: 0}),
		"fully skip": EncodeAllocRep(AllocRep{Status: AllocGrant, First: 1, Count: 2, Skip: 0b11}),
		"short":      EncodeAllocRep(AllocRep{Status: AllocOver})[:8],
	}
	for name, p := range bad {
		if _, err := DecodeAllocRep(p); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}

func TestRegisterAndBuiltRoundTrips(t *testing.T) {
	if out, err := DecodeRegisterReq(EncodeRegisterReq(RegisterReq{BU: 2, Node: 7})); err != nil || out != (RegisterReq{BU: 2, Node: 7}) {
		t.Fatalf("register req: %+v %v", out, err)
	}
	if out, err := DecodeRegisterRep(EncodeRegisterRep(RegisterRep{Version: 11})); err != nil || out.Version != 11 {
		t.Fatalf("register rep: %+v %v", out, err)
	}
	if out, err := DecodeBuiltNote(EncodeBuiltNote(BuiltNote{BU: 1, Event: 42})); err != nil || out != (BuiltNote{BU: 1, Event: 42}) {
		t.Fatalf("built note: %+v %v", out, err)
	}
	if _, err := DecodeBuiltNote(EncodeBuiltNote(BuiltNote{BU: 1, Event: 0})); err == nil {
		t.Error("built note for event 0 decoded")
	}
	if out, err := DecodeReleaseNote(EncodeReleaseNote(ReleaseNote{BU: 3, First: 17})); err != nil || out != (ReleaseNote{BU: 3, First: 17}) {
		t.Fatalf("release note: %+v %v", out, err)
	}
	if _, err := DecodeReleaseNote(EncodeReleaseNote(ReleaseNote{BU: 3, First: 0})); err == nil {
		t.Error("release note for event 0 decoded")
	}
	if _, err := DecodeRegisterReq([]byte{1, 2, 3}); err == nil {
		t.Error("short register req decoded")
	}
}

// FuzzWireRecords asserts every DAQ record decoder is total (no panics on
// arbitrary input) and an exact inverse of its encoder: any payload that
// decodes must re-encode to the identical bytes.  That property is what
// makes the codecs safe to use on fenced, versioned records — a sloppy
// bound that accepted trailing or aliased bytes would break it instantly.
func FuzzWireRecords(f *testing.F) {
	f.Add(uint8(0), EncodeFragReq(FragReq{Version: 1, BU: 2, First: 3, Count: 4, Skip: 5}))
	f.Add(uint8(1), EncodeFragRep(FragRep{Version: 1, First: 1, Count: 2,
		Frags: []Fragment{{RU: 0, Event: 1, Data: []byte("abc")}, {RU: 1, Event: 2}}}))
	f.Add(uint8(2), EncodeAllocReq(AllocReq{BU: 3}))
	f.Add(uint8(3), EncodeAllocRep(AllocRep{Status: AllocGrant, Version: 1, First: 9, Count: 4, Skip: 2}))
	f.Add(uint8(4), EncodeRegisterReq(RegisterReq{BU: 1, Node: 2}))
	f.Add(uint8(5), EncodeRegisterRep(RegisterRep{Version: 3}))
	f.Add(uint8(6), EncodeBuiltNote(BuiltNote{BU: 1, Event: 2}))
	f.Add(uint8(7), EncodeShardMap(NewShardMap(4, 2)))
	f.Add(uint8(8), EncodeReleaseNote(ReleaseNote{BU: 1, First: 5}))
	f.Fuzz(func(t *testing.T, kind uint8, p []byte) {
		switch kind % 9 {
		case 0:
			if r, err := DecodeFragReq(p); err == nil {
				if !bytes.Equal(EncodeFragReq(r), p) {
					t.Fatalf("FragReq re-encode differs for %x", p)
				}
			}
		case 1:
			if r, err := DecodeFragRep(p); err == nil {
				if !bytes.Equal(EncodeFragRep(r), p) {
					t.Fatalf("FragRep re-encode differs for %x", p)
				}
			}
		case 2:
			if r, err := DecodeAllocReq(p); err == nil {
				if !bytes.Equal(EncodeAllocReq(r), p) {
					t.Fatalf("AllocReq re-encode differs for %x", p)
				}
			}
		case 3:
			if r, err := DecodeAllocRep(p); err == nil {
				if !bytes.Equal(EncodeAllocRep(r), p) {
					t.Fatalf("AllocRep re-encode differs for %x", p)
				}
			}
		case 4:
			if r, err := DecodeRegisterReq(p); err == nil {
				if !bytes.Equal(EncodeRegisterReq(r), p) {
					t.Fatalf("RegisterReq re-encode differs for %x", p)
				}
			}
		case 5:
			if r, err := DecodeRegisterRep(p); err == nil {
				if !bytes.Equal(EncodeRegisterRep(r), p) {
					t.Fatalf("RegisterRep re-encode differs for %x", p)
				}
			}
		case 6:
			if r, err := DecodeBuiltNote(p); err == nil {
				if !bytes.Equal(EncodeBuiltNote(r), p) {
					t.Fatalf("BuiltNote re-encode differs for %x", p)
				}
			}
		case 7:
			if r, err := DecodeShardMap(p); err == nil {
				if !bytes.Equal(EncodeShardMap(r), p) {
					t.Fatalf("ShardMap re-encode differs for %x", p)
				}
			}
		case 8:
			if r, err := DecodeReleaseNote(p); err == nil {
				if !bytes.Equal(EncodeReleaseNote(r), p) {
					t.Fatalf("ReleaseNote re-encode differs for %x", p)
				}
			}
		}
	})
}
