package storage

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
)

// Reader gives checksum-verified access to one segment's records.  It is
// read-only: a torn tail is skipped, never truncated, so a reader can
// inspect a crashed segment without deciding its fate.
type Reader struct {
	f       *os.File
	entries []IndexEntry
	dataEnd int64
	torn    int64 // bytes after the last valid record
	buf     []byte
}

// OpenReader opens a segment file for reading, using the footer index
// when intact and a full checksum scan otherwise.
func OpenReader(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	size := st.Size()
	var hdr [headerSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: short header in %s", ErrCorrupt, path)
	}
	if _, err := decodeHeader(hdr[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	r := &Reader{f: f}
	var ok bool
	if r.entries, r.dataEnd, ok = loadIndex(f, size); !ok {
		if r.entries, r.dataEnd, err = scanSegment(f, size); err != nil {
			f.Close()
			return nil, err
		}
		r.torn = size - r.dataEnd
	}
	return r, nil
}

// Len returns the number of valid records.
func (r *Reader) Len() int { return len(r.entries) }

// Record reads and verifies the i-th record.  The payload slice is valid
// until the next Record call.
func (r *Reader) Record(i int) (event uint64, payload []byte, err error) {
	e := r.entries[i]
	need := recHdrSize + int(e.Size)
	if need > cap(r.buf) {
		r.buf = make([]byte, need)
	}
	r.buf = r.buf[:need]
	if _, err := r.f.ReadAt(r.buf, e.Off); err != nil {
		return 0, nil, err
	}
	size, crc, event := decodeRecHdr(r.buf)
	if size != e.Size || event != e.Event {
		return 0, nil, fmt.Errorf("%w: record %d header disagrees with index", ErrCorrupt, i)
	}
	payload = r.buf[recHdrSize:]
	if crc32.Checksum(payload, castagnoli) != crc {
		return 0, nil, fmt.Errorf("%w: record %d checksum", ErrCorrupt, i)
	}
	return event, payload, nil
}

// Close releases the file.
func (r *Reader) Close() error { return r.f.Close() }

// Record is one event held in memory, the unit the replayer streams.
type Record struct {
	Event uint64
	Data  []byte
}

// LoadSet reads every segment (seg-*.xseg) in dir into memory and
// returns the records sorted by event id.  Duplicate event ids across
// segments are kept — the audit layer decides what they mean.
func LoadSet(dir string) ([]Record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "seg-*.xseg"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var out []Record
	for _, path := range paths {
		r, err := OpenReader(path)
		if err != nil {
			return nil, err
		}
		for i := 0; i < r.Len(); i++ {
			event, payload, err := r.Record(i)
			if err != nil {
				r.Close()
				return nil, err
			}
			out = append(out, Record{Event: event, Data: append([]byte(nil), payload...)})
		}
		r.Close()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Event < out[j].Event })
	return out, nil
}
