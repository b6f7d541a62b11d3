package i2o

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// Flags carries the frame control bits.
type Flags uint8

const (
	// FlagReplyExpected marks a request whose initiator waits for a reply
	// frame carrying the same InitiatorContext.
	FlagReplyExpected Flags = 1 << 0

	// FlagReply marks a frame that answers an earlier request.
	FlagReply Flags = 1 << 1

	// FlagFail marks a reply that reports failure; the payload carries an
	// encoded failure record (see FailRecord).
	FlagFail Flags = 1 << 2
)

func (f Flags) Has(bit Flags) bool { return f&bit != 0 }

func (f Flags) String() string {
	s := ""
	if f.Has(FlagReplyExpected) {
		s += "E"
	}
	if f.Has(FlagReply) {
		s += "R"
	}
	if f.Has(FlagFail) {
		s += "F"
	}
	if s == "" {
		return "-"
	}
	return s
}

// Frame sizes, in bytes.  An I2O message is measured in 32-bit words; the
// standard header occupies four words and the private extension adds one.
const (
	wordSize = 4

	// StandardHeaderSize is the byte size of the standard frame header.
	StandardHeaderSize = 4 * wordSize

	// PrivateHeaderSize is the byte size of the header including the
	// private extension word (present when Function == FuncPrivate).
	PrivateHeaderSize = 5 * wordSize

	// MaxWireSize is the largest encodable frame: the MessageSize field is
	// a 16-bit word count.
	MaxWireSize = 0xFFFF * wordSize

	// MaxPayload is the largest payload of a private frame.  This aligns
	// with the paper's 256 KB maximum buffer pool block length.
	MaxPayload = MaxWireSize - PrivateHeaderSize
)

// Releaser is the hook through which a Message participates in buffer pool
// reference counting without this package depending on the pool
// implementation.  The executive attaches the pool buffer backing
// Message.Payload; transports retain it while a frame is in flight and
// release it after delivery, implementing the paper's automatic recycling.
type Releaser interface {
	Retain()
	Release()
}

// SegmentedPayload is a payload chained across several pool blocks — an
// I2O Scatter-Gather List (implemented by sgl.List).  Gather-capable
// transports walk the segments straight onto the wire instead of
// flattening them into one buffer first; that avoided copy is the point of
// the paper's SGL support (§4).  Retain/Release manage the whole chain.
type SegmentedPayload interface {
	Releaser
	Len() int
	Segments() int
	Segment(i int) []byte
}

// Message is one I2O message frame.  The struct form is the in-memory
// representation moved between devices on the same IOP (zero-copy: Payload
// aliases a buffer pool block); Encode/Decode translate to the wire layout
// of figure 5 for transports that serialize.
type Message struct {
	Flags              Flags
	Priority           Priority
	Target             TID
	Initiator          TID
	Function           Function
	InitiatorContext   uint32
	TransactionContext uint32

	// Private extension, meaningful only when Function == FuncPrivate.
	XFunction uint16
	Org       OrgID

	// Payload is the frame body.  When the message was allocated through
	// an executive it aliases a buffer pool block; Release returns it.
	// A frame carries either Payload or an attached segment list (see
	// AttachList), never both.
	Payload []byte

	buf    Releaser
	list   SegmentedPayload
	pooled bool
}

// framePool is the message-struct free list backing the allocation-free
// dispatch hot path: frames acquired here are recycled by the executive
// once dispatch ends (or by the caller, for replies it owns), so the
// steady-state messaging path creates no garbage.  It is the in-memory
// analogue of the paper's frame buffer recycling, applied to the frame
// descriptors themselves.
var framePool = sync.Pool{New: func() any { return new(Message) }}

// AcquireMessage returns a zeroed frame from the package free list.  The
// frame is marked as pool-managed: whoever terminally owns it may call
// Recycle to return the struct for reuse.  Frames built as plain struct
// literals are never pooled and are left to the garbage collector.
func AcquireMessage() *Message {
	m := framePool.Get().(*Message)
	m.pooled = true
	return m
}

// Recycle releases the attached buffer (like Release) and, when the frame
// came from AcquireMessage, returns the struct to the free list.  The
// message must not be used afterwards.  Calling Recycle on a non-pooled
// frame is equivalent to Release, so terminal dispatch paths can call it
// unconditionally.
func (m *Message) Recycle() {
	m.Release()
	if !m.pooled {
		return
	}
	*m = Message{}
	framePool.Put(m)
}

// HeaderSize returns the byte size of this message's header on the wire.
func (m *Message) HeaderSize() int {
	if m.Function.IsPrivate() {
		return PrivateHeaderSize
	}
	return StandardHeaderSize
}

// WireSize returns the total encoded size in bytes, including padding to a
// word boundary.
func (m *Message) WireSize() int {
	n := m.HeaderSize() + m.PayloadLen()
	return (n + wordSize - 1) &^ (wordSize - 1)
}

// PayloadLen returns the byte length of the frame body, whether it is the
// flat Payload slice or an attached segment list.
func (m *Message) PayloadLen() int {
	if m.list != nil {
		return m.list.Len()
	}
	return len(m.Payload)
}

// Validation errors.
var (
	ErrBadVersion  = errors.New("i2o: unsupported frame version")
	ErrBadTID      = errors.New("i2o: invalid target identifier")
	ErrBadPriority = errors.New("i2o: priority out of range")
	ErrTooLarge    = errors.New("i2o: frame exceeds maximum wire size")
	ErrTruncated   = errors.New("i2o: truncated frame")
	ErrShortBuffer = errors.New("i2o: destination buffer too small")
	ErrDualBody    = errors.New("i2o: frame has both flat payload and segment list")
	ErrBadPadding  = errors.New("i2o: nonzero padding bytes")
)

// Validate checks that the message can be represented on the wire.
func (m *Message) Validate() error {
	if !m.Target.Valid() {
		return fmt.Errorf("%w: target %v", ErrBadTID, m.Target)
	}
	if m.Initiator > TIDMax {
		return fmt.Errorf("%w: initiator %v", ErrBadTID, m.Initiator)
	}
	if !m.Priority.Valid() {
		return fmt.Errorf("%w: %d", ErrBadPriority, m.Priority)
	}
	if m.list != nil && len(m.Payload) != 0 {
		return ErrDualBody
	}
	if m.WireSize() > MaxWireSize {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, m.WireSize())
	}
	return nil
}

// AttachBuffer records the pool buffer backing Payload so that Retain and
// Release manage its reference count.  Passing nil detaches.
func (m *Message) AttachBuffer(b Releaser) { m.buf = b }

// Buffer returns the attached pool buffer, or nil.
func (m *Message) Buffer() Releaser { return m.buf }

// AttachList makes l the frame body.  The list takes the attached-buffer
// slot, so Retain/Release manage the whole chain exactly as they would a
// single block; Payload must stay nil (Validate rejects frames carrying
// both).  Only transports that serialize (tcp, gm) can carry a list — the
// pointer-passing transports deliver the frame struct as-is, so a list
// payload crossing them would reach a handler expecting Payload bytes.
func (m *Message) AttachList(l SegmentedPayload) {
	m.list = l
	if l == nil {
		m.buf = nil
		return
	}
	m.buf = l
}

// List returns the attached segment list, or nil for flat frames.
func (m *Message) List() SegmentedPayload { return m.list }

// Retain increments the reference count of the backing buffer, if any.
func (m *Message) Retain() {
	if m.buf != nil {
		m.buf.Retain()
	}
}

// Release decrements the reference count of the backing buffer, if any,
// recycling it to its pool when the count reaches zero.  The message must
// not be used afterwards.
func (m *Message) Release() {
	if m.buf != nil {
		m.buf.Release()
		m.buf = nil
	}
	m.list = nil
}

// Encode writes the wire representation into dst and returns the number of
// bytes written (always a multiple of the word size).
//
// Wire layout, little-endian, one 32-bit word per row:
//
//	word 0: version (byte) | prio+pad+flags (byte) | message size in words (uint16)
//	word 1: target (12 bits) | initiator (12 bits) | function (8 bits)
//	word 2: initiator context
//	word 3: transaction context
//	word 4: xfunction (16 bits) | organization id (16 bits)   [private only]
//	then the payload, zero-padded to a word boundary.
func (m *Message) Encode(dst []byte) (int, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	size := m.WireSize()
	if len(dst) < size {
		return 0, fmt.Errorf("%w: need %d, have %d", ErrShortBuffer, size, len(dst))
	}
	hdr := m.HeaderSize()
	pad := size - hdr - m.PayloadLen()

	dst[0] = Version
	dst[1] = byte(m.Priority) | byte(pad)<<3 | byte(m.Flags)<<5
	binary.LittleEndian.PutUint16(dst[2:], uint16(size/wordSize))

	addr := uint32(m.Target&TIDMax) | uint32(m.Initiator&TIDMax)<<12 | uint32(m.Function)<<24
	binary.LittleEndian.PutUint32(dst[4:], addr)
	binary.LittleEndian.PutUint32(dst[8:], m.InitiatorContext)
	binary.LittleEndian.PutUint32(dst[12:], m.TransactionContext)
	if m.Function.IsPrivate() {
		binary.LittleEndian.PutUint32(dst[16:], uint32(m.XFunction)|uint32(m.Org)<<16)
	}
	if m.list != nil {
		off := hdr
		for i, n := 0, m.list.Segments(); i < n; i++ {
			off += copy(dst[off:], m.list.Segment(i))
		}
	} else {
		copy(dst[hdr:], m.Payload)
	}
	for i := size - pad; i < size; i++ {
		dst[i] = 0
	}
	return size, nil
}

// EncodeHeader writes only the header words into dst (which must hold
// HeaderSize bytes) with the size field covering the full frame including
// payload and padding.  Transports with gather capability use it to put a
// frame on the wire without first flattening header and payload into one
// buffer: header, payload and PadBytes(len(payload)) zero bytes.
func (m *Message) EncodeHeader(dst []byte) (int, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	hdr := m.HeaderSize()
	if len(dst) < hdr {
		return 0, fmt.Errorf("%w: need %d, have %d", ErrShortBuffer, hdr, len(dst))
	}
	size := m.WireSize()
	pad := size - hdr - m.PayloadLen()

	dst[0] = Version
	dst[1] = byte(m.Priority) | byte(pad)<<3 | byte(m.Flags)<<5
	binary.LittleEndian.PutUint16(dst[2:], uint16(size/wordSize))
	addr := uint32(m.Target&TIDMax) | uint32(m.Initiator&TIDMax)<<12 | uint32(m.Function)<<24
	binary.LittleEndian.PutUint32(dst[4:], addr)
	binary.LittleEndian.PutUint32(dst[8:], m.InitiatorContext)
	binary.LittleEndian.PutUint32(dst[12:], m.TransactionContext)
	if m.Function.IsPrivate() {
		binary.LittleEndian.PutUint32(dst[16:], uint32(m.XFunction)|uint32(m.Org)<<16)
	}
	return hdr, nil
}

// PadBytes returns how many zero bytes follow a payload of n bytes on the
// wire to reach word alignment.
func PadBytes(n int) int { return (wordSize - n%wordSize) % wordSize }

// ZeroPad is a ready-made source of padding bytes for gather transmission.
var ZeroPad = [wordSize]byte{}

// AppendBody appends the frame body — the flat Payload or every segment of
// an attached list — plus word-alignment padding to vec, and returns the
// extended vector.  Gather transports call it after EncodeHeader to build
// the iovec for a single vectored write without flattening anything: the
// appended slices alias the frame's pool blocks, so no payload byte is
// copied until the kernel (or the simulated NIC) reads them.
func (m *Message) AppendBody(vec [][]byte) [][]byte {
	n := m.PayloadLen()
	if m.list != nil {
		for i, segs := 0, m.list.Segments(); i < segs; i++ {
			if seg := m.list.Segment(i); len(seg) > 0 {
				vec = append(vec, seg)
			}
		}
	} else if n > 0 {
		vec = append(vec, m.Payload)
	}
	if pad := PadBytes(n); pad > 0 {
		vec = append(vec, ZeroPad[:pad])
	}
	return vec
}

// DecodeAcquired parses one frame from src into a frame from the package
// free list, so receive paths that hand the frame to a dispatcher (which
// recycles it at end of dispatch) allocate no frame descriptor per
// message.  The frame's Payload aliases src; it returns the number of
// bytes consumed.  On error the acquired frame is returned to the pool
// before reporting.
func DecodeAcquired(src []byte) (*Message, int, error) {
	m := AcquireMessage()
	n, err := decode(m, src)
	if err != nil {
		m.Recycle()
		return nil, 0, err
	}
	return m, n, nil
}

func decode(m *Message, src []byte) (int, error) {
	if len(src) < StandardHeaderSize {
		return 0, ErrTruncated
	}
	if src[0] != Version {
		return 0, fmt.Errorf("%w: %d", ErrBadVersion, src[0])
	}
	b1 := src[1]
	prio := Priority(b1 & 0x07)
	pad := int(b1 >> 3 & 0x03)
	flags := Flags(b1 >> 5)

	size := int(binary.LittleEndian.Uint16(src[2:])) * wordSize
	if size < StandardHeaderSize || size > len(src) {
		return 0, fmt.Errorf("%w: size %d, have %d", ErrTruncated, size, len(src))
	}
	addr := binary.LittleEndian.Uint32(src[4:])
	target := TID(addr & 0xFFF)
	initiator := TID(addr >> 12 & 0xFFF)
	fn := Function(addr >> 24)

	hdr := StandardHeaderSize
	if fn.IsPrivate() {
		hdr = PrivateHeaderSize
		if size < hdr {
			return 0, fmt.Errorf("%w: private frame of %d bytes", ErrTruncated, size)
		}
	}
	payloadLen := size - hdr - pad
	if payloadLen < 0 {
		return 0, fmt.Errorf("%w: pad %d exceeds body", ErrTruncated, pad)
	}
	if !prio.Valid() {
		return 0, fmt.Errorf("%w: %d", ErrBadPriority, prio)
	}
	if !target.Valid() {
		return 0, fmt.Errorf("%w: decoded target %v", ErrBadTID, target)
	}

	*m = Message{
		Flags:              flags,
		Priority:           prio,
		Target:             target,
		Initiator:          initiator,
		Function:           fn,
		InitiatorContext:   binary.LittleEndian.Uint32(src[8:]),
		TransactionContext: binary.LittleEndian.Uint32(src[12:]),
		pooled:             m.pooled,
	}
	if fn.IsPrivate() {
		x := binary.LittleEndian.Uint32(src[16:])
		m.XFunction = uint16(x)
		m.Org = OrgID(x >> 16)
	}
	// Encoders emit zero padding; anything else means the sender and
	// receiver disagree about where the body ends — corruption worth
	// refusing rather than silently dropping bytes.
	for _, p := range src[hdr+payloadLen : size] {
		if p != 0 {
			return 0, ErrBadPadding
		}
	}
	m.Payload = src[hdr : hdr+payloadLen]
	return size, nil
}

// Dup returns an independent copy of the frame sharing its body: header
// fields are copied, the flat payload or segment list is aliased, and the
// backing pool buffer's reference count is incremented so the original and
// the duplicate can be released (or recycled) independently.  The fault
// injector's Duplicate op uses it to put the same frame on the wire twice
// without either copy freeing the block out from under the other.
func (m *Message) Dup() *Message {
	d := AcquireMessage()
	pooled := d.pooled
	*d = *m
	d.pooled = pooled
	if d.buf != nil {
		d.buf.Retain()
	}
	return d
}

// NewReply builds the reply skeleton for req: addresses are swapped, the
// function code and contexts are preserved, and the reply flag is set.  The
// caller fills in the payload (and the fail flag, for failures).  The frame
// comes from the package free list; the waiter that consumes it may call
// Recycle (Release keeps working and merely leaves the struct to the
// garbage collector).
func NewReply(req *Message) *Message {
	m := AcquireMessage()
	m.Flags = FlagReply
	m.Priority = req.Priority
	m.Target = req.Initiator
	m.Initiator = req.Target
	m.Function = req.Function
	m.InitiatorContext = req.InitiatorContext
	m.TransactionContext = req.TransactionContext
	m.XFunction = req.XFunction
	m.Org = req.Org
	return m
}

// String renders a compact one-line summary for logs and tests.
func (m *Message) String() string {
	if m.Function.IsPrivate() {
		return fmt.Sprintf("frame{%v<-%v %v/%#04x org=%#04x prio=%d flags=%v len=%d}",
			m.Target, m.Initiator, m.Function, m.XFunction, uint16(m.Org), m.Priority, m.Flags, len(m.Payload))
	}
	return fmt.Sprintf("frame{%v<-%v %v prio=%d flags=%v len=%d}",
		m.Target, m.Initiator, m.Function, m.Priority, m.Flags, len(m.Payload))
}
