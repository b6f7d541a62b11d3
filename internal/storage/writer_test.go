package storage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"testing"
	"time"

	"xdaq/internal/pta"
)

// bytesSource adapts a flat slice to the gather-copy contract.
type bytesSource []byte

func (s bytesSource) CopyTo(off int, dst []byte) (int, error) {
	return copy(dst, s[off:]), nil
}

// payloadFor builds a deterministic, event-unique payload.
func payloadFor(event uint64, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(event>>((i%8)*8)) ^ byte(i)
	}
	return p
}

// appendRetry appends with a bounded retry loop on writer-full, the same
// move the SW's clients make when the ack says AckFull.
func appendRetry(t *testing.T, w *Writer, event uint64, data []byte) {
	t.Helper()
	for try := 0; ; try++ {
		err := w.Append(event, len(data), bytesSource(data))
		if err == nil || errors.Is(err, ErrDuplicate) {
			return
		}
		if !errors.Is(err, pta.ErrTransient) || try > 10000 {
			t.Fatalf("append event %d: %v", event, err)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

func TestWriterRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Instance: 3, ArenaSize: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for ev := uint64(0); ev < n; ev++ {
		appendRetry(t, w, ev, payloadFor(ev, 100+int(ev%700)))
	}
	if got := w.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	if !w.Contains(17) || w.Contains(n) {
		t.Fatal("Contains disagrees with appended set")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenReader(w.Options().Path())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.torn != 0 {
		t.Fatalf("clean close left %d torn bytes", r.torn)
	}
	if r.Len() != n {
		t.Fatalf("reader sees %d records, want %d", r.Len(), n)
	}
	for i := 0; i < r.Len(); i++ {
		event, payload, err := r.Record(i)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if want := payloadFor(event, 100+int(event%700)); !bytes.Equal(payload, want) {
			t.Fatalf("record %d (event %d) payload mismatch", i, event)
		}
	}
}

func TestWriterDuplicate(t *testing.T) {
	w, err := Open(Options{Dir: t.TempDir(), Instance: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	data := payloadFor(7, 64)
	if err := w.Append(7, len(data), bytesSource(data)); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(7, len(data), bytesSource(data)); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("second append: %v, want ErrDuplicate", err)
	}
	if st := w.Stats(); st.Events != 1 || st.Dups != 1 {
		t.Fatalf("stats = %+v, want 1 event 1 dup", st)
	}
}

func TestWriterBackpressureTransient(t *testing.T) {
	// A slow simulated disk and tiny arenas: the third arena's worth of
	// appends must surface writer-full, and it must read as transient so
	// the SW→BU→EVM backpressure chain picks it up.
	w, err := Open(Options{Dir: t.TempDir(), Instance: 0, ArenaSize: 2 << 10, SimDelay: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	data := payloadFor(0, 1800)
	var sawFull bool
	for ev := uint64(0); ev < 4; ev++ {
		err := w.Append(ev, len(data), bytesSource(data))
		if err == nil {
			continue
		}
		if !errors.Is(err, pta.ErrTransient) {
			t.Fatalf("append %d: %v, not transient", ev, err)
		}
		sawFull = true
		break
	}
	if !sawFull {
		t.Fatal("no writer-full with both arenas busy")
	}
	if st := w.Stats(); st.Stalls == 0 {
		t.Fatalf("stats = %+v, want stalls > 0", st)
	}
	// Draining the pipeline makes room again.
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(99, len(data), bytesSource(data)); err != nil {
		t.Fatalf("append after flush: %v", err)
	}
}

func TestWriterOversizedRecord(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Instance: 0, ArenaSize: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	small := payloadFor(1, 512)
	big := payloadFor(2, 64<<10) // 16x the arena
	appendRetry(t, w, 1, small)
	appendRetry(t, w, 2, big)
	appendRetry(t, w, 3, small)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(Options{Dir: dir}.Path())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 3 {
		t.Fatalf("got %d records, want 3", r.Len())
	}
	event, payload, err := r.Record(1)
	if err != nil || event != 2 || !bytes.Equal(payload, big) {
		t.Fatalf("oversized record: event %d err %v match %v", event, err, bytes.Equal(payload, big))
	}
}

func TestWriterReopenAppends(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, Instance: 0, ArenaSize: 8 << 10}
	w, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for ev := uint64(0); ev < 50; ev++ {
		appendRetry(t, w, ev, payloadFor(ev, 300))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := w2.Stats(); st.Recovered != 50 || st.Truncations != 0 {
		t.Fatalf("reopen stats = %+v, want 50 recovered, clean", st)
	}
	// Recovered events are duplicates; fresh ones append.
	if err := w2.Append(10, 300, bytesSource(payloadFor(10, 300))); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("recovered event re-append: %v, want ErrDuplicate", err)
	}
	for ev := uint64(50); ev < 80; ev++ {
		appendRetry(t, w2, ev, payloadFor(ev, 300))
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	records, err := LoadSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 80 {
		t.Fatalf("LoadSet: %d records, want 80", len(records))
	}
	for i, rec := range records {
		if rec.Event != uint64(i) || !bytes.Equal(rec.Data, payloadFor(rec.Event, 300)) {
			t.Fatalf("record %d: event %d, payload match %v", i, rec.Event, bytes.Equal(rec.Data, payloadFor(rec.Event, 300)))
		}
	}
}

func TestWriterCrashRecoverReplay(t *testing.T) {
	// The chaos invariant in miniature: crash tears the active arena, a
	// reopen truncates the torn record, and replaying the full stream
	// restores exactly the lost suffix — nothing lost, nothing doubled.
	dir := t.TempDir()
	opts := Options{Dir: dir, Instance: 0, ArenaSize: 4 << 10}
	w, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	for ev := uint64(0); ev < n; ev++ {
		appendRetry(t, w, ev, payloadFor(ev, 700))
	}
	w.Crash()
	if err := w.Append(n, 1, bytesSource{0}); !errors.Is(err, ErrCrashed) {
		t.Fatalf("append after crash: %v, want ErrCrashed", err)
	}

	w2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	st := w2.Stats()
	if st.Recovered >= n {
		t.Fatalf("recovered %d of %d: crash tore nothing", st.Recovered, n)
	}
	if st.Truncations != 1 || st.TruncatedBytes == 0 {
		t.Fatalf("reopen stats = %+v, want a truncated torn tail", st)
	}
	// Replay the full stream: survivors dedup, the torn tail heals.
	for ev := uint64(0); ev < n; ev++ {
		appendRetry(t, w2, ev, payloadFor(ev, 700))
	}
	if st := w2.Stats(); st.Events+st.Recovered != n || st.Dups != st.Recovered {
		t.Fatalf("after replay: %+v, want events+recovered = %d with dups = recovered", st, n)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	records, err := LoadSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != n {
		t.Fatalf("after replay: %d records, want %d", len(records), n)
	}
	seen := map[uint64]bool{}
	for _, rec := range records {
		if seen[rec.Event] {
			t.Fatalf("event %d stored twice", rec.Event)
		}
		seen[rec.Event] = true
		if !bytes.Equal(rec.Data, payloadFor(rec.Event, 700)) {
			t.Fatalf("event %d payload mismatch after recovery", rec.Event)
		}
	}
}

// buildSegment writes a clean segment of n records and returns the raw
// file split into (records region, index+trailer region).
func buildSegment(t *testing.T, n int) (string, []byte, []byte) {
	t.Helper()
	dir := t.TempDir()
	opts := Options{Dir: dir, Instance: 0, ArenaSize: 8 << 10}
	w, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	var dataEnd int64 = headerSize
	for ev := uint64(0); ev < uint64(n); ev++ {
		p := payloadFor(ev, 200+int(ev%100))
		appendRetry(t, w, ev, p)
		dataEnd += recHdrSize + int64(len(p))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(opts.Path())
	if err != nil {
		t.Fatal(err)
	}
	return dir, raw[:dataEnd], raw[dataEnd:]
}

func TestRecoveryTornSuffixes(t *testing.T) {
	const n = 20
	cases := []struct {
		name string
		// mutate returns the file image to recover from.
		mutate    func(records, footer []byte) []byte
		recovered uint64 // records Open must find
		truncated bool   // a torn tail was cut
	}{
		{
			name: "clean-footer",
			mutate: func(records, footer []byte) []byte {
				return append(records, footer...)
			},
			recovered: n,
		},
		{
			name: "no-footer",
			mutate: func(records, _ []byte) []byte {
				return records
			},
			recovered: n,
		},
		{
			name: "torn-header",
			mutate: func(records, _ []byte) []byte {
				// A record header cut off mid-way: claims nothing valid.
				return append(records, 0xAA, 0xBB, 0xCC, 0xDD, 0xEE)
			},
			recovered: n,
			truncated: true,
		},
		{
			name: "torn-payload",
			mutate: func(records, _ []byte) []byte {
				// A full header promising 512 bytes, then only 100.
				var hdr [recHdrSize]byte
				encodeRecHdr(hdr[:], 512, 0xDEAD, uint64(n))
				out := append(records, hdr[:]...)
				return append(out, make([]byte, 100)...)
			},
			recovered: n,
			truncated: true,
		},
		{
			name: "corrupt-payload",
			mutate: func(records, _ []byte) []byte {
				// Flip a byte inside the last record's payload: the scan
				// must refuse it and everything after it.
				out := append([]byte(nil), records...)
				out[len(out)-10] ^= 0xFF
				return out
			},
			recovered: n - 1,
			truncated: true,
		},
		{
			name: "torn-index",
			mutate: func(records, footer []byte) []byte {
				// Footer present but damaged mid-index: the trailer CRC
				// fails, the scan fallback recovers every record and the
				// index bytes are truncated away as tail garbage.
				out := append(records, footer...)
				out[len(records)+3] ^= 0xFF
				return out
			},
			recovered: n,
			truncated: true,
		},
		{
			name: "torn-trailer",
			mutate: func(records, footer []byte) []byte {
				// All but the trailer's last 9 bytes: no magic, scan.
				out := append(records, footer...)
				return out[:len(out)-9]
			},
			recovered: n,
			truncated: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, records, footer := buildSegment(t, n)
			dir := t.TempDir()
			opts := Options{Dir: dir, Instance: 0, ArenaSize: 8 << 10}
			img := tc.mutate(append([]byte(nil), records...), footer)
			if err := os.WriteFile(opts.Path(), img, 0o644); err != nil {
				t.Fatal(err)
			}

			// The read-only view agrees about what is recoverable.
			r, err := OpenReader(opts.Path())
			if err != nil {
				t.Fatal(err)
			}
			if uint64(r.Len()) != tc.recovered {
				t.Fatalf("reader: %d records, want %d", r.Len(), tc.recovered)
			}
			r.Close()

			w, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			st := w.Stats()
			if st.Recovered != tc.recovered {
				t.Fatalf("recovered %d, want %d", st.Recovered, tc.recovered)
			}
			if tc.truncated != (st.Truncations > 0) {
				t.Fatalf("truncations = %d, want truncated=%v", st.Truncations, tc.truncated)
			}
			// The segment stays appendable after recovery, and closes
			// back into a cleanly indexed file.
			appendRetry(t, w, 1000, payloadFor(1000, 333))
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			r2, err := OpenReader(opts.Path())
			if err != nil {
				t.Fatal(err)
			}
			defer r2.Close()
			if r2.torn != 0 || uint64(r2.Len()) != tc.recovered+1 {
				t.Fatalf("after close: %d records, %d torn bytes", r2.Len(), r2.torn)
			}
		})
	}
}

func TestLoadSetStripes(t *testing.T) {
	dir := t.TempDir()
	const stripes = 3
	for s := 0; s < stripes; s++ {
		w, err := Open(Options{Dir: dir, Instance: s})
		if err != nil {
			t.Fatal(err)
		}
		for ev := uint64(0); ev < 30; ev++ {
			if ev%stripes != uint64(s) {
				continue
			}
			appendRetry(t, w, ev, payloadFor(ev, 128))
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	records, err := LoadSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 30 {
		t.Fatalf("LoadSet: %d records, want 30", len(records))
	}
	for i, rec := range records {
		if rec.Event != uint64(i) {
			t.Fatalf("record %d holds event %d: set not sorted or not complete", i, rec.Event)
		}
	}
}

func TestWriterStatsString(t *testing.T) {
	// Options.Path is part of the tooling surface (xdaqctl, chaos); pin
	// the naming scheme.
	got := Options{Dir: "/data", Instance: 7}.Path()
	if want := "/data/seg-007.xseg"; got != want {
		t.Fatalf("Path = %q, want %q", got, want)
	}
	if fmt.Sprintf("%v", Options{}.withDefaults().ArenaSize) != "1048576" {
		t.Fatal("default arena size changed")
	}
}
