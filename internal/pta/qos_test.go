package pta

import (
	"errors"
	"testing"
	"time"

	"xdaq/internal/i2o"
)

// fakeClock is a hand-advanced time source for the token buckets.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1000, 0)} }

func TestQoSAdmitTokenBucket(t *testing.T) {
	_, a := newAgent(t)
	clk := newFakeClock()
	a.qosNow = clk.now
	if err := a.SetQoS([]QoSClass{{Name: "bulk", Priority: i2o.PriorityBulk, Rate: 2, Burst: 2}}); err != nil {
		t.Fatal(err)
	}
	// The bucket opens full (= burst).
	for i := 0; i < 2; i++ {
		if err := a.qosAdmit(i2o.PriorityBulk); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
	err := a.qosAdmit(i2o.PriorityBulk)
	if !errors.Is(err, ErrAdmission) {
		t.Fatalf("exhausted budget admitted: %v", err)
	}
	if errors.Is(err, ErrTransient) {
		t.Fatal("reject-class refusal must not be transient (it would be retried)")
	}
	// Half a second at 2/s refills one token, not two.
	clk.advance(500 * time.Millisecond)
	if err := a.qosAdmit(i2o.PriorityBulk); err != nil {
		t.Fatalf("after refill: %v", err)
	}
	if err := a.qosAdmit(i2o.PriorityBulk); !errors.Is(err, ErrAdmission) {
		t.Fatalf("second frame after half-token refill: %v", err)
	}
	// A long idle period caps at burst, never beyond.
	clk.advance(time.Hour)
	for i := 0; i < 2; i++ {
		if err := a.qosAdmit(i2o.PriorityBulk); err != nil {
			t.Fatalf("post-idle admit %d: %v", i, err)
		}
	}
	if err := a.qosAdmit(i2o.PriorityBulk); !errors.Is(err, ErrAdmission) {
		t.Fatalf("burst cap exceeded after idle: %v", err)
	}
}

func TestQoSQueueClassIsTransient(t *testing.T) {
	_, a := newAgent(t)
	clk := newFakeClock()
	a.qosNow = clk.now
	if err := a.SetQoS([]QoSClass{{Name: "evt", Priority: i2o.PriorityHigh, Rate: 1, Burst: 1, Queue: true}}); err != nil {
		t.Fatal(err)
	}
	if err := a.qosAdmit(i2o.PriorityHigh); err != nil {
		t.Fatal(err)
	}
	err := a.qosAdmit(i2o.PriorityHigh)
	if !errors.Is(err, ErrAdmission) || !errors.Is(err, ErrTransient) {
		t.Fatalf("queue-class refusal must be both admission and transient: %v", err)
	}
}

// Ungoverned priorities and zero-rate classes pass freely; admission only
// bites the class's own level.
func TestQoSScope(t *testing.T) {
	_, a := newAgent(t)
	clk := newFakeClock()
	a.qosNow = clk.now
	if err := a.SetQoS([]QoSClass{
		{Name: "bulk", Priority: i2o.PriorityBulk, Rate: 1, Burst: 1},
		{Name: "doc", Priority: i2o.PriorityLow, Rate: 0}, // documents the mapping only
	}); err != nil {
		t.Fatal(err)
	}
	a.qosAdmit(i2o.PriorityBulk)
	if err := a.qosAdmit(i2o.PriorityBulk); !errors.Is(err, ErrAdmission) {
		t.Fatalf("governed level: %v", err)
	}
	for i := 0; i < 100; i++ {
		if err := a.qosAdmit(i2o.PriorityHigh); err != nil {
			t.Fatalf("ungoverned level refused: %v", err)
		}
		if err := a.qosAdmit(i2o.PriorityLow); err != nil {
			t.Fatalf("zero-rate class refused: %v", err)
		}
	}
	// Clearing the table turns admission off entirely.
	if err := a.SetQoS(nil); err != nil {
		t.Fatal(err)
	}
	if err := a.qosAdmit(i2o.PriorityBulk); err != nil {
		t.Fatalf("admission off: %v", err)
	}
}

// Forward charges the bucket per attempt: a reject-class refusal
// surfaces ErrAdmission to the caller and counts as a forward error.
func TestQoSForwardRejects(t *testing.T) {
	_, a := newAgent(t)
	clk := newFakeClock()
	a.qosNow = clk.now
	pt := &fakePT{name: "pt.fake"}
	if err := a.Register(pt, Task); err != nil {
		t.Fatal(err)
	}
	if err := a.SetQoS([]QoSClass{{Name: "bulk", Priority: i2o.PriorityBulk, Rate: 1, Burst: 1}}); err != nil {
		t.Fatal(err)
	}
	send := func() error {
		return a.Forward("pt.fake", 2, &i2o.Message{
			Priority: i2o.PriorityBulk, Target: 5, Function: i2o.UtilNOP,
		})
	}
	if err := send(); err != nil {
		t.Fatal(err)
	}
	if err := send(); !errors.Is(err, ErrAdmission) {
		t.Fatalf("over-budget forward: %v", err)
	}
	if len(pt.sent) != 1 {
		t.Fatalf("transport saw %d frames, want 1", len(pt.sent))
	}
	if count(a, "errors") != 1 {
		t.Fatalf("pta.errors %d", count(a, "errors"))
	}
}

func TestSetQoSValidation(t *testing.T) {
	_, a := newAgent(t)
	cases := []struct {
		name    string
		classes []QoSClass
	}{
		{"empty name", []QoSClass{{Name: "", Priority: 1, Rate: 1}}},
		{"priority out of range", []QoSClass{{Name: "x", Priority: i2o.NumPriorities, Rate: 1}}},
		{"duplicate priority", []QoSClass{
			{Name: "a", Priority: 2, Rate: 1},
			{Name: "b", Priority: 2, Rate: 1},
		}},
	}
	for _, c := range cases {
		if err := a.SetQoS(c.classes); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	// A failed install must not clobber the previous table.
	if err := a.SetQoS([]QoSClass{{Name: "keep", Priority: 3, Rate: 5}}); err != nil {
		t.Fatal(err)
	}
	a.SetQoS([]QoSClass{{Name: "", Priority: 1, Rate: 1}})
	if got := a.QoS(); len(got) != 1 || got[0].Name != "keep" {
		t.Fatalf("previous table lost: %v", got)
	}
}

// applyQoSParams is the autopilot's actuation path: "qos.<class>" writes
// install, update and remove classes; malformed writes are skipped
// without disturbing the installed set.
func TestApplyQoSParams(t *testing.T) {
	_, a := newAgent(t)
	a.applyQoSParams([]i2o.Param{
		{Key: "qos.bulk", Value: "6 100 200 true"},
		{Key: "qos.control", Value: "0 50"},
	})
	got := a.QoS()
	if len(got) != 2 {
		t.Fatalf("classes %v", got)
	}
	if got[0].Name != "control" || got[0].Priority != 0 || got[0].Rate != 50 {
		t.Fatalf("control class %+v", got[0])
	}
	if got[1].Name != "bulk" || got[1].Priority != 6 || got[1].Rate != 100 ||
		got[1].Burst != 200 || !got[1].Queue {
		t.Fatalf("bulk class %+v", got[1])
	}

	// Update one, remove the other, skip garbage — atomically.
	a.applyQoSParams([]i2o.Param{
		{Key: "qos.bulk", Value: "6 250"},
		{Key: "qos.control", Value: "off"},
		{Key: "qos.bad", Value: "9 nope"},
		{Key: "qos.worse", Value: int64(7)},
		{Key: "unrelated", Value: "ignored"},
	})
	got = a.QoS()
	if len(got) != 1 || got[0].Name != "bulk" || got[0].Rate != 250 {
		t.Fatalf("after update %v", got)
	}
}

func TestParseQoSValue(t *testing.T) {
	good := []struct {
		val  string
		want QoSClass
	}{
		{"3 100", QoSClass{Name: "c", Priority: 3, Rate: 100}},
		{"3 100 64", QoSClass{Name: "c", Priority: 3, Rate: 100, Burst: 64}},
		{"3 100 64 true", QoSClass{Name: "c", Priority: 3, Rate: 100, Burst: 64, Queue: true}},
		{"0 -1", QoSClass{Name: "c", Priority: 0, Rate: -1}},
	}
	for _, g := range good {
		c, err := parseQoSValue("c", g.val)
		if err != nil {
			t.Errorf("%q: %v", g.val, err)
			continue
		}
		if c != g.want {
			t.Errorf("%q: %+v, want %+v", g.val, c, g.want)
		}
	}
	for _, bad := range []string{"", "3", "9 100", "x 100", "3 x", "3 100 x", "3 100 64 maybe", "3 100 64 true extra"} {
		if _, err := parseQoSValue("c", bad); err == nil {
			t.Errorf("%q: accepted", bad)
		}
	}
}
