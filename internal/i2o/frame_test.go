package i2o

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// Decode parses one frame from src into a fresh, unpooled Message whose
// Payload aliases src, and returns the bytes consumed.  It is the oracle
// the tests and fuzzers hold the pooled DecodeAcquired path against.
func Decode(src []byte) (*Message, int, error) {
	var m Message
	n, err := decode(&m, src)
	if err != nil {
		return nil, 0, err
	}
	return &m, n, nil
}

func sampleMessage() *Message {
	return &Message{
		Flags:              FlagReplyExpected,
		Priority:           PriorityNormal,
		Target:             0x123,
		Initiator:          0x456,
		Function:           FuncPrivate,
		InitiatorContext:   0xDEADBEEF,
		TransactionContext: 0x01020304,
		XFunction:          0x7788,
		Org:                OrgXDAQ,
		Payload:            []byte("hello, cluster"),
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := sampleMessage()
	buf := make([]byte, m.WireSize())
	n, err := m.Encode(buf)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if n != m.WireSize() {
		t.Fatalf("Encode wrote %d, WireSize %d", n, m.WireSize())
	}
	got, consumed, err := Decode(buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if consumed != n {
		t.Fatalf("Decode consumed %d, encoded %d", consumed, n)
	}
	if got.Target != m.Target || got.Initiator != m.Initiator ||
		got.Function != m.Function || got.Priority != m.Priority ||
		got.Flags != m.Flags || got.InitiatorContext != m.InitiatorContext ||
		got.TransactionContext != m.TransactionContext ||
		got.XFunction != m.XFunction || got.Org != m.Org {
		t.Fatalf("header mismatch:\n got %+v\nwant %+v", got, m)
	}
	if !bytes.Equal(got.Payload, m.Payload) {
		t.Fatalf("payload mismatch: got %q want %q", got.Payload, m.Payload)
	}
}

func TestStandardFrameHasNoExtension(t *testing.T) {
	m := &Message{
		Priority: PriorityUrgent,
		Target:   TIDExecutive,
		Function: ExecStatusGet,
	}
	if m.HeaderSize() != StandardHeaderSize {
		t.Fatalf("HeaderSize = %d, want %d", m.HeaderSize(), StandardHeaderSize)
	}
	buf := make([]byte, m.WireSize())
	if _, err := m.Encode(buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, _, err := Decode(buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.XFunction != 0 || got.Org != 0 {
		t.Fatalf("standard frame decoded with extension values %x/%x", got.XFunction, got.Org)
	}
	if len(got.Payload) != 0 {
		t.Fatalf("empty frame decoded with %d payload bytes", len(got.Payload))
	}
}

func TestEncodePadding(t *testing.T) {
	for payloadLen := 0; payloadLen < 9; payloadLen++ {
		m := sampleMessage()
		m.Payload = bytes.Repeat([]byte{0xAB}, payloadLen)
		buf := make([]byte, m.WireSize())
		if _, err := m.Encode(buf); err != nil {
			t.Fatalf("len %d: Encode: %v", payloadLen, err)
		}
		if m.WireSize()%4 != 0 {
			t.Fatalf("len %d: WireSize %d not word aligned", payloadLen, m.WireSize())
		}
		got, _, err := Decode(buf)
		if err != nil {
			t.Fatalf("len %d: Decode: %v", payloadLen, err)
		}
		if len(got.Payload) != payloadLen {
			t.Fatalf("len %d: decoded payload length %d", payloadLen, len(got.Payload))
		}
	}
}

func TestEncodeValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Message)
		want error
	}{
		{"no target", func(m *Message) { m.Target = TIDNone }, ErrBadTID},
		{"target too wide", func(m *Message) { m.Target = TIDMax + 1 }, ErrBadTID},
		{"initiator too wide", func(m *Message) { m.Initiator = 0x1000 }, ErrBadTID},
		{"priority", func(m *Message) { m.Priority = NumPriorities }, ErrBadPriority},
		{"too large", func(m *Message) { m.Payload = make([]byte, MaxPayload+1) }, ErrTooLarge},
	}
	for _, tc := range cases {
		m := sampleMessage()
		tc.mut(m)
		buf := make([]byte, 64)
		if _, err := m.Encode(buf); !errors.Is(err, tc.want) {
			t.Errorf("%s: Encode err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestEncodeShortBuffer(t *testing.T) {
	m := sampleMessage()
	buf := make([]byte, m.WireSize()-1)
	if _, err := m.Encode(buf); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("Encode into short buffer: %v", err)
	}
}

func TestDecodeErrors(t *testing.T) {
	m := sampleMessage()
	buf := make([]byte, m.WireSize())
	if _, err := m.Encode(buf); err != nil {
		t.Fatal(err)
	}

	if _, _, err := Decode(buf[:StandardHeaderSize-1]); !errors.Is(err, ErrTruncated) {
		t.Errorf("short header: %v", err)
	}
	if _, _, err := Decode(buf[:m.WireSize()-4]); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated body: %v", err)
	}

	bad := append([]byte(nil), buf...)
	bad[0] = 99
	if _, _, err := Decode(bad); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version: %v", err)
	}

	// A private frame whose declared size cannot hold the extension word.
	tiny := &Message{Priority: 0, Target: 5, Function: ExecStatusGet}
	tb := make([]byte, tiny.WireSize())
	if _, err := tiny.Encode(tb); err != nil {
		t.Fatal(err)
	}
	tb[7] = byte(FuncPrivate) // function byte lives at the top of word 1
	if _, _, err := Decode(tb); !errors.Is(err, ErrTruncated) {
		t.Errorf("private without extension: %v", err)
	}

	// Garbage in the word-alignment padding means the sender and receiver
	// disagree about where the body ends; the decoder refuses it rather
	// than silently dropping bytes (found by FuzzDecodeAcquired: accepting
	// it also broke decode/encode idempotence).
	padded := &Message{Priority: 0, Target: 5, Function: ExecStatusGet, Payload: []byte{1, 2, 3}}
	pb := make([]byte, padded.WireSize())
	if _, err := padded.Encode(pb); err != nil {
		t.Fatal(err)
	}
	pb[len(pb)-1] = 0xFF
	if _, _, err := Decode(pb); !errors.Is(err, ErrBadPadding) {
		t.Errorf("nonzero padding: %v", err)
	}
}

func TestEncodeHeaderMatchesEncode(t *testing.T) {
	// The gather-send path (header || payload || pad) must produce exactly
	// the bytes of a flat Encode, for any message.
	f := func(seed int64) bool {
		m := quickMessage(rand.New(rand.NewSource(seed)))
		flat := make([]byte, m.WireSize())
		if _, err := m.Encode(flat); err != nil {
			return false
		}
		var hdr [PrivateHeaderSize]byte
		n, err := m.EncodeHeader(hdr[:])
		if err != nil || n != m.HeaderSize() {
			return false
		}
		gathered := append(append(append([]byte(nil), hdr[:n]...), m.Payload...), ZeroPad[:PadBytes(len(m.Payload))]...)
		return bytes.Equal(flat, gathered)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeHeaderErrors(t *testing.T) {
	m := sampleMessage()
	var small [4]byte
	if _, err := m.EncodeHeader(small[:]); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("short dst: %v", err)
	}
	m.Target = TIDNone
	var hdr [PrivateHeaderSize]byte
	if _, err := m.EncodeHeader(hdr[:]); !errors.Is(err, ErrBadTID) {
		t.Fatalf("invalid message: %v", err)
	}
}

func TestPadBytes(t *testing.T) {
	for n, want := range map[int]int{0: 0, 1: 3, 2: 2, 3: 1, 4: 0, 5: 3, 8: 0} {
		if got := PadBytes(n); got != want {
			t.Errorf("PadBytes(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestNewReplySwapsAddresses(t *testing.T) {
	req := sampleMessage()
	rep := NewReply(req)
	if rep.Target != req.Initiator || rep.Initiator != req.Target {
		t.Fatalf("reply addressing: %v <- %v", rep.Target, rep.Initiator)
	}
	if !rep.Flags.Has(FlagReply) || rep.Flags.Has(FlagReplyExpected) {
		t.Fatalf("reply flags = %v", rep.Flags)
	}
	if rep.InitiatorContext != req.InitiatorContext || rep.TransactionContext != req.TransactionContext {
		t.Fatal("reply must preserve contexts")
	}
	if rep.XFunction != req.XFunction || rep.Org != req.Org {
		t.Fatal("reply must preserve private identification")
	}
}

// quickMessage builds a random, always-valid message from quick's generator
// values.
func quickMessage(r *rand.Rand) *Message {
	payload := make([]byte, r.Intn(1024))
	r.Read(payload)
	m := &Message{
		Flags:              Flags(r.Intn(8)),
		Priority:           Priority(r.Intn(NumPriorities)),
		Target:             TID(1 + r.Intn(int(TIDMax))),
		Initiator:          TID(r.Intn(int(TIDMax) + 1)),
		InitiatorContext:   r.Uint32(),
		TransactionContext: r.Uint32(),
		Payload:            payload,
	}
	if r.Intn(2) == 0 {
		m.Function = FuncPrivate
		m.XFunction = uint16(r.Uint32())
		m.Org = OrgID(r.Uint32())
	} else {
		m.Function = Function(r.Intn(0xFF)) // anything but private
	}
	return m
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		m := quickMessage(rand.New(rand.NewSource(seed)))
		buf := make([]byte, m.WireSize())
		if _, err := m.Encode(buf); err != nil {
			t.Logf("Encode: %v", err)
			return false
		}
		got, n, err := Decode(buf)
		if err != nil || n != m.WireSize() {
			t.Logf("Decode: n=%d err=%v", n, err)
			return false
		}
		return got.Target == m.Target && got.Initiator == m.Initiator &&
			got.Function == m.Function && got.Priority == m.Priority &&
			got.Flags == m.Flags &&
			got.InitiatorContext == m.InitiatorContext &&
			got.TransactionContext == m.TransactionContext &&
			bytes.Equal(got.Payload, m.Payload) &&
			(!m.Function.IsPrivate() || (got.XFunction == m.XFunction && got.Org == m.Org))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDecodeNeverPanics(t *testing.T) {
	f := func(junk []byte) bool {
		// Decode must reject or accept arbitrary bytes without panicking.
		_, _, _ = Decode(junk)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

type countingReleaser struct{ retains, releases int }

func (c *countingReleaser) Retain()  { c.retains++ }
func (c *countingReleaser) Release() { c.releases++ }

func TestBufferAttachment(t *testing.T) {
	m := sampleMessage()
	if m.Buffer() != nil {
		t.Fatal("fresh message has a buffer")
	}
	m.Retain()
	m.Release() // both no-ops without a buffer

	c := &countingReleaser{}
	m.AttachBuffer(c)
	m.Retain()
	m.Retain()
	m.Release()
	if c.retains != 2 || c.releases != 1 {
		t.Fatalf("retains=%d releases=%d", c.retains, c.releases)
	}
	if m.Buffer() != nil {
		t.Fatal("Release must detach the buffer")
	}
	m.Release() // second release after detach is a no-op
	if c.releases != 1 {
		t.Fatal("release after detach reached the buffer")
	}
}

func TestTIDValidity(t *testing.T) {
	if TIDNone.Valid() {
		t.Error("TIDNone must be invalid")
	}
	if !TIDExecutive.Valid() || !TIDMax.Valid() {
		t.Error("executive and max TiDs must be valid")
	}
	if (TIDMax + 1).Valid() {
		t.Error("13-bit TiD must be invalid")
	}
}

func TestFunctionClasses(t *testing.T) {
	if UtilParamsGet.IsExecutive() || UtilParamsGet.IsPrivate() {
		t.Error("UtilParamsGet classification")
	}
	if !ExecPlugin.IsExecutive() || ExecPlugin.IsPrivate() {
		t.Error("ExecPlugin classification")
	}
	if !FuncPrivate.IsPrivate() {
		t.Error("FuncPrivate classification")
	}
}

func TestStringForms(t *testing.T) {
	// Smoke-test the human-readable forms used in logs.
	for _, s := range []string{
		TIDNone.String(), TIDExecutive.String(), TID(0x42).String(),
		NodeID(3).String(), UtilNOP.String(), Function(0x99).String(),
		sampleMessage().String(),
		(&Message{Target: 1, Function: UtilNOP}).String(),
		Flags(0).String(), (FlagReply | FlagFail).String(),
	} {
		if s == "" {
			t.Fatal("empty String()")
		}
	}
}

func TestDupSharesRefcountedBody(t *testing.T) {
	c := &countingReleaser{}
	m := sampleMessage()
	m.AttachBuffer(c)

	d := m.Dup()
	if c.retains != 1 {
		t.Fatalf("Dup retained %d times, want 1", c.retains)
	}
	if d.String() != m.String() {
		t.Fatalf("dup differs from original:\n  %v\n  %v", d, m)
	}
	if &d.Payload[0] != &m.Payload[0] {
		t.Fatal("dup copied the payload instead of aliasing it")
	}
	d.Recycle()
	m.Release()
	if c.releases != 2 {
		t.Fatalf("releases=%d, want 2 (one per frame)", c.releases)
	}

	// A dup of a non-pooled frame is itself pooled (from AcquireMessage)
	// and recyclable; a dup of a pooled frame likewise.
	p := AcquireMessage()
	p.Target, p.Priority = 0x010, PriorityNormal
	pd := p.Dup()
	pd.Recycle()
	p.Recycle()
}
