package faults

import (
	"errors"
	"sync"
	"testing"
	"time"

	"xdaq/internal/i2o"
	"xdaq/internal/pool"
)

func TestNthSchedule(t *testing.T) {
	in := New(1).Add(Rule{Op: Drop, Nth: 3})
	var got []Op
	for i := 0; i < 9; i++ {
		got = append(got, in.NextFor(1).Op)
	}
	want := []Op{Pass, Pass, Drop, Pass, Pass, Drop, Pass, Pass, Drop}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("frame %d: got %v, want %v (full: %v)", i+1, got[i], want[i], got)
		}
	}
}

func TestAfterAndLimit(t *testing.T) {
	in := New(1).Add(Rule{Op: Error, Nth: 1, After: 2, Limit: 2})
	var errs int
	for i := 0; i < 6; i++ {
		act := in.NextFor(1)
		if act.Op == Error {
			errs++
			if i < 2 {
				t.Fatalf("rule fired during warm-up, frame %d", i+1)
			}
			if !errors.Is(act.Err, ErrInjected) {
				t.Fatalf("generated error %v does not wrap ErrInjected", act.Err)
			}
		}
	}
	if errs != 2 {
		t.Fatalf("rule hit %d frames, want limit 2", errs)
	}
}

func TestDropAfterGoesSilent(t *testing.T) {
	in := New(1).Add(Rule{Op: Drop, Nth: 1, After: 4})
	for i := 1; i <= 10; i++ {
		act := in.NextFor(1)
		if i <= 4 && act.Op != Pass {
			t.Fatalf("frame %d faulted during warm-up: %v", i, act.Op)
		}
		if i > 4 && act.Op != Drop {
			t.Fatalf("frame %d not dropped after cutoff: %v", i, act.Op)
		}
	}
}

func TestSeededProbabilityIsDeterministic(t *testing.T) {
	run := func() []Op {
		in := New(42).Add(Rule{Op: Drop, Prob: 0.5})
		var out []Op
		for i := 0; i < 32; i++ {
			out = append(out, in.NextFor(1).Op)
		}
		return out
	}
	a, b := run(), run()
	var drops int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at frame %d", i+1)
		}
		if a[i] == Drop {
			drops++
		}
	}
	if drops == 0 || drops == len(a) {
		t.Fatalf("p=0.5 rule hit %d/%d frames; generator not engaged", drops, len(a))
	}
}

func TestFirstMatchWinsAndDelayCarries(t *testing.T) {
	in := New(1).
		Add(Rule{Op: Delay, Nth: 2, Delay: 5 * time.Millisecond}).
		Add(Rule{Op: Drop, Nth: 2})
	in.NextFor(1) // frame 1: pass
	act := in.NextFor(1)
	if act.Op != Delay || act.Delay != 5*time.Millisecond {
		t.Fatalf("frame 2: got %v/%v, want first-listed Delay rule", act.Op, act.Delay)
	}
}

// Per-peer streams: the verdict for "the Nth frame to peer P" must not
// depend on how sends to other peers interleave with it.
func TestPerPeerStreamsIndependentOfInterleaving(t *testing.T) {
	const frames = 64
	// Sequential: drain peer 1 fully, then peer 2.
	seq := func() (a, b []Op) {
		in := New(7).Add(Rule{Op: Drop, Prob: 0.3}).Add(Rule{Op: Duplicate, Nth: 5})
		for i := 0; i < frames; i++ {
			a = append(a, in.NextFor(1).Op)
		}
		for i := 0; i < frames; i++ {
			b = append(b, in.NextFor(2).Op)
		}
		return
	}
	// Interleaved: alternate peers, with traffic to a third peer mixed in.
	inter := func() (a, b []Op) {
		in := New(7).Add(Rule{Op: Drop, Prob: 0.3}).Add(Rule{Op: Duplicate, Nth: 5})
		for i := 0; i < frames; i++ {
			b = append(b, in.NextFor(2).Op)
			in.NextFor(3) // unrelated traffic must not perturb peer streams
			a = append(a, in.NextFor(1).Op)
		}
		return
	}
	a1, b1 := seq()
	a2, b2 := inter()
	for i := 0; i < frames; i++ {
		if a1[i] != a2[i] {
			t.Fatalf("peer 1 frame %d: %v sequential vs %v interleaved", i+1, a1[i], a2[i])
		}
		if b1[i] != b2[i] {
			t.Fatalf("peer 2 frame %d: %v sequential vs %v interleaved", i+1, b1[i], b2[i])
		}
	}
	// Distinct peers must see distinct schedules (independent generators).
	same := true
	for i := range a1 {
		if a1[i] != b1[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatalf("peers 1 and 2 drew identical %d-frame schedules; streams not independently seeded", frames)
	}
}

// Concurrent senders to different peers: each peer's schedule must match
// the single-threaded one exactly, whatever the goroutine interleaving.
func TestPerPeerStreamsDeterministicUnderConcurrency(t *testing.T) {
	const peers, frames = 4, 128
	want := make([][]Op, peers)
	in := New(99).Add(Rule{Op: Drop, Prob: 0.25}).Add(Rule{Op: Error, Nth: 7})
	for p := 0; p < peers; p++ {
		for i := 0; i < frames; i++ {
			want[p] = append(want[p], in.NextFor(uint64(p)).Op)
		}
	}
	got := make([][]Op, peers)
	in2 := New(99).Add(Rule{Op: Drop, Prob: 0.25}).Add(Rule{Op: Error, Nth: 7})
	var wg sync.WaitGroup
	for p := 0; p < peers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < frames; i++ {
				got[p] = append(got[p], in2.NextFor(uint64(p)).Op)
			}
		}(p)
	}
	wg.Wait()
	for p := 0; p < peers; p++ {
		for i := 0; i < frames; i++ {
			if got[p][i] != want[p][i] {
				t.Fatalf("peer %d frame %d: got %v, want %v", p, i+1, got[p][i], want[p][i])
			}
		}
	}
}

// Limits are per stream: a Limit-2 rule fires twice on every peer, not
// twice total.
func TestLimitIsPerStream(t *testing.T) {
	in := New(1).Add(Rule{Op: Drop, Nth: 1, Limit: 2})
	for _, peer := range []uint64{10, 20} {
		var drops int
		for i := 0; i < 5; i++ {
			if in.NextFor(peer).Op == Drop {
				drops++
			}
		}
		if drops != 2 {
			t.Fatalf("peer %d: rule hit %d frames, want per-stream limit 2", peer, drops)
		}
	}
}

// Rules added after a stream already exists apply to it from that point.
func TestAddRuleAfterStreamCreated(t *testing.T) {
	in := New(1)
	if act := in.NextFor(3); act.Op != Pass {
		t.Fatalf("no rules: got %v, want pass", act.Op)
	}
	in.Add(Rule{Op: Drop, Nth: 1})
	if act := in.NextFor(3); act.Op != Drop {
		t.Fatalf("after adding a drop-every-frame rule: got %v, want drop", act.Op)
	}
}

func TestDuplicateOp(t *testing.T) {
	in := New(1).Add(Rule{Op: Duplicate, Nth: 2})
	if act := in.NextFor(1); act.Op != Pass {
		t.Fatalf("frame 1: got %v, want pass", act.Op)
	}
	if act := in.NextFor(1); act.Op != Duplicate {
		t.Fatalf("frame 2: got %v, want dup", act.Op)
	}
	if Duplicate.String() != "dup" {
		t.Fatalf("Duplicate.String() = %q", Duplicate.String())
	}
}

// TestHookApply walks the shared send-path hook through every verdict: the
// copy count it hands the transport, the error, and whether the frame's
// buffer was released.
func TestHookApply(t *testing.T) {
	var h Hook
	frame := func() *i2o.Message {
		b, err := pool.NewTable(0).Alloc(16)
		if err != nil {
			t.Fatal(err)
		}
		m := &i2o.Message{Target: 1, Function: i2o.UtilNOP, Payload: b.Bytes()}
		m.AttachBuffer(b)
		return m
	}
	m := frame()
	if n, err := h.Apply(7, m); n != 1 || err != nil || m.Buffer() == nil {
		t.Fatalf("no injector: copies=%d err=%v buffer=%v, want a pass", n, err, m.Buffer())
	}
	// Frames 1..4 to peer 7: pass, duplicate, drop, error.
	h.Set(New(1).
		Add(Rule{Op: Duplicate, Nth: 2, Limit: 1}).
		Add(Rule{Op: Drop, Nth: 3, Limit: 1}).
		Add(Rule{Op: Error, Nth: 4, Limit: 1}))
	for i, want := range []struct {
		copies   int
		injected bool
	}{{1, false}, {2, false}, {0, false}, {0, true}} {
		m := frame()
		n, err := h.Apply(7, m)
		if n != want.copies || errors.Is(err, ErrInjected) != want.injected {
			t.Fatalf("frame %d: copies=%d err=%v, want copies=%d injected=%v", i+1, n, err, want.copies, want.injected)
		}
		if released := m.Buffer() == nil; released != (n == 0) {
			t.Fatalf("frame %d: copies=%d but buffer released=%v", i+1, n, released)
		}
	}
	h.Set(nil)
	if n, err := h.Apply(7, m); n != 1 || err != nil {
		t.Fatalf("injector removed: copies=%d err=%v", n, err)
	}
}
