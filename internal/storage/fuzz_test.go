package storage

import (
	"bytes"
	"errors"
	"os"
	"testing"
	"time"

	"xdaq/internal/pta"
)

// FuzzSegment drives the segment codec from both ends: a set of records
// written through the Writer must read back identical (decode(encode(x))
// == x), and opening the same image with an arbitrary mutated tail must
// never panic — recovery either finds a consistent record set or reports
// a clean error, and the recovered writer must remain appendable.
func FuzzSegment(f *testing.F) {
	f.Add([]byte("one event payload"), []byte{}, uint8(1), uint16(0))
	f.Add(bytes.Repeat([]byte{0}, 64), []byte{0, 0, 0, 0, 0, 0, 0, 0}, uint8(4), uint16(3))
	f.Add([]byte("XDAQIDX1XDAQSEG1"), []byte("XDAQIDX1"), uint8(3), uint16(40))
	f.Fuzz(func(t *testing.T, payload, suffix []byte, nrec uint8, cut uint16) {
		if len(payload) > 4<<10 {
			payload = payload[:4<<10]
		}
		if len(payload) == 0 {
			payload = []byte{0xA5}
		}
		n := int(nrec%6) + 1
		dir := t.TempDir()
		opts := Options{Dir: dir, Instance: 0, ArenaSize: 2 << 10}

		// Encode a record set; sizes vary with the event id so records
		// straddle arena rotations.
		w, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]byte, n)
		for ev := 0; ev < n; ev++ {
			end := 1 + (len(payload)*(ev+1))/n
			if end > len(payload) {
				end = len(payload)
			}
			rec := payload[:end]
			want[ev] = rec
			for {
				err := w.Append(uint64(ev), len(rec), bytesSource(rec))
				if err == nil {
					break
				}
				if !errors.Is(err, pta.ErrTransient) {
					t.Fatalf("append %d: %v", ev, err)
				}
				time.Sleep(20 * time.Microsecond)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}

		// decode(encode(x)) == x through the indexed fast path.
		r, err := OpenReader(opts.Path())
		if err != nil {
			t.Fatal(err)
		}
		if r.Len() != n || r.torn != 0 {
			t.Fatalf("clean segment reads as %d records, %d torn", r.Len(), r.torn)
		}
		for i := 0; i < n; i++ {
			event, data, err := r.Record(i)
			if err != nil {
				t.Fatalf("record %d: %v", i, err)
			}
			if event != uint64(i) || !bytes.Equal(data, want[i]) {
				t.Fatalf("record %d: event %d, payload mismatch", i, event)
			}
		}
		r.Close()

		// Mutate the image: cut it anywhere and splice in an arbitrary
		// suffix.  Whatever this produces, open must not panic, and a
		// writer recovered from it must still take appends and close into
		// a self-consistent segment.
		img, err := os.ReadFile(opts.Path())
		if err != nil {
			t.Fatal(err)
		}
		at := int(cut) % (len(img) + 1)
		mut := append(append([]byte(nil), img[:at]...), suffix...)
		if err := os.WriteFile(opts.Path(), mut, 0o644); err != nil {
			t.Fatal(err)
		}

		if r2, err := OpenReader(opts.Path()); err == nil {
			for i := 0; i < r2.Len(); i++ {
				if _, _, err := r2.Record(i); err != nil {
					t.Fatalf("recovered record %d unreadable: %v", i, err)
				}
			}
			r2.Close()
		}
		w2, err := Open(opts)
		if err != nil {
			return // e.g. the header itself was cut: a clean refusal
		}
		fresh := payload[:1+len(payload)/2]
		for {
			err := w2.Append(1<<40, len(fresh), bytesSource(fresh))
			if err == nil || errors.Is(err, ErrDuplicate) {
				break
			}
			if !errors.Is(err, pta.ErrTransient) {
				t.Fatalf("append after recovery: %v", err)
			}
			time.Sleep(20 * time.Microsecond)
		}
		if err := w2.Close(); err != nil {
			t.Fatalf("close after recovery: %v", err)
		}
		r3, err := OpenReader(opts.Path())
		if err != nil {
			t.Fatalf("reopen after recovery+close: %v", err)
		}
		if r3.torn != 0 {
			t.Fatalf("recovered segment closed with %d torn bytes", r3.torn)
		}
		for i := 0; i < r3.Len(); i++ {
			if _, _, err := r3.Record(i); err != nil {
				t.Fatalf("post-recovery record %d: %v", i, err)
			}
		}
		r3.Close()
	})
}
