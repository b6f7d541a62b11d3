package bsa

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"xdaq/internal/executive"
	"xdaq/internal/i2o"
	"xdaq/internal/pta"
	"xdaq/internal/transport/loopback"
)

func localVolume(t *testing.T, blockSize int, blocks uint64) (*Device, *Client) {
	t.Helper()
	e := executive.New(executive.Options{
		Name: "bsa", Node: 1,
		RequestTimeout: 2 * time.Second,
		Logf:           func(string, ...any) {},
	})
	t.Cleanup(e.Close)
	vol := New(0, blockSize, blocks)
	id, err := e.Plug(vol.Module())
	if err != nil {
		t.Fatal(err)
	}
	return vol, NewClient(e, id, vol.BlockSize())
}

func TestReadWriteRoundTrip(t *testing.T) {
	vol, c := localVolume(t, 512, 128)
	data := bytes.Repeat([]byte{0xAB}, 3*512)
	if err := c.Write(10, data); err != nil {
		t.Fatal(err)
	}
	got, err := c.Read(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read back mismatch")
	}
	if vol.Written() != 3 {
		t.Fatalf("written %d", vol.Written())
	}
}

func TestUnwrittenBlocksReadZero(t *testing.T) {
	_, c := localVolume(t, 256, 16)
	got, err := c.Read(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("byte %d = %#02x", i, b)
		}
	}
}

func TestPartialOverwrite(t *testing.T) {
	_, c := localVolume(t, 64, 8)
	first := bytes.Repeat([]byte{1}, 2*64)
	if err := c.Write(0, first); err != nil {
		t.Fatal(err)
	}
	second := bytes.Repeat([]byte{2}, 64)
	if err := c.Write(1, second); err != nil {
		t.Fatal(err)
	}
	got, err := c.Read(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[64] != 2 {
		t.Fatalf("blocks %v %v", got[0], got[64])
	}
}

func TestRangeAndValidationErrors(t *testing.T) {
	_, c := localVolume(t, 128, 4)
	cases := []struct {
		name string
		call func() error
		want string
	}{
		{"read past end", func() error { _, err := c.Read(3, 2); return err }, "out of range"},
		{"read zero blocks", func() error { _, err := c.Read(0, 0); return err }, "malformed"},
		{"read too many", func() error { _, err := c.Read(0, MaxIOBlocks+1); return err }, "malformed"},
		{"write past end", func() error { return c.Write(4, make([]byte, 128)) }, "out of range"},
		{"write misaligned", func() error { return c.Write(0, make([]byte, 100)) }, "malformed"},
		{"write empty", func() error { return c.Write(0, nil) }, "malformed"},
	}
	for _, tc := range cases {
		err := tc.call()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v", tc.name, err)
		}
		var rec *i2o.FailRecord
		if !errors.As(err, &rec) {
			t.Errorf("%s: error is %T, want fail reply", tc.name, err)
		}
	}
}

func TestFlushAndStatus(t *testing.T) {
	_, c := localVolume(t, 512, 64)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := c.Write(1, make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st["blocks"] != int64(64) || st["blocksize"] != int64(512) ||
		st["flushes"] != uint64(1) || st["stored"] != int64(1) || st["written"] != uint64(1) {
		t.Fatalf("status %v", st)
	}
}

func TestRemoteVolume(t *testing.T) {
	fabric := loopback.NewFabric()
	mk := func(id i2o.NodeID) *executive.Executive {
		e := executive.New(executive.Options{
			Name: "bsa", Node: id,
			RequestTimeout: 2 * time.Second,
			Logf:           func(string, ...any) {},
		})
		agent, err := pta.New(e)
		if err != nil {
			t.Fatal(err)
		}
		ep, err := fabric.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := agent.Register(ep, pta.Task); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			agent.Close()
			e.Close()
		})
		e.SetRoute(1, loopback.DefaultName)
		e.SetRoute(2, loopback.DefaultName)
		return e
	}
	server := mk(1)
	client := mk(2)
	vol := New(0, 1024, 32)
	if _, err := server.Plug(vol.Module()); err != nil {
		t.Fatal(err)
	}
	target, err := client.Discover(1, Class, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(client, target, 1024)
	data := bytes.Repeat([]byte{0x5C}, 1024)
	if err := c.Write(7, data); err != nil {
		t.Fatal(err)
	}
	got, err := c.Read(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("remote read mismatch")
	}
	// The device itself never knew the caller was remote.
	if vol.Written() != 1 {
		t.Fatalf("written %d", vol.Written())
	}
}

func TestQuickVolumeModel(t *testing.T) {
	// The device must behave like a flat byte array under random aligned
	// reads and writes.
	const blockSize, blocks = 32, 16
	_, c := localVolume(t, blockSize, blocks)
	model := make([]byte, blockSize*blocks)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		for op := 0; op < 10; op++ {
			lba := uint64(r.Intn(blocks))
			count := 1 + r.Intn(3)
			if int(lba)+count > blocks {
				count = blocks - int(lba)
			}
			if r.Intn(2) == 0 {
				data := make([]byte, count*blockSize)
				r.Read(data)
				if err := c.Write(lba, data); err != nil {
					return false
				}
				copy(model[int(lba)*blockSize:], data)
			} else {
				got, err := c.Read(lba, count)
				if err != nil {
					return false
				}
				if !bytes.Equal(got, model[int(lba)*blockSize:int(lba)*blockSize+count*blockSize]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultGeometry(t *testing.T) {
	vol := New(3, 0, 10)
	if vol.BlockSize() != DefaultBlockSize || vol.Blocks() != 10 {
		t.Fatalf("geometry %d/%d", vol.BlockSize(), vol.Blocks())
	}
	if vol.Module().Class() != Class || vol.Module().Instance() != 3 {
		t.Fatal("module identity")
	}
	if v, _ := vol.Module().Params().Get("blocksize"); v != int64(DefaultBlockSize) {
		t.Fatal("blocksize parameter")
	}
}
