package pta_test

import (
	"errors"
	"testing"
	"time"

	"xdaq/internal/executive"
	"xdaq/internal/i2o"
	"xdaq/internal/pta"
	"xdaq/internal/transport/faults"
	"xdaq/internal/transport/loopback"
)

// retryPair builds two loopback-connected executives with an injector on
// the A side's endpoint.
func retryPair(t *testing.T, in *faults.Injector, pol *pta.RetryPolicy) (*executive.Executive, *executive.Executive) {
	t.Helper()
	fabric := loopback.NewFabric()
	mk := func(id i2o.NodeID, wrap bool) *executive.Executive {
		e := executive.New(executive.Options{
			Name: "retry", Node: id,
			RequestTimeout: 250 * time.Millisecond,
			Logf:           func(string, ...any) {},
		})
		ep, err := fabric.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		if wrap {
			ep.SetFaults(in)
		}
		agent, err := pta.New(e)
		if err != nil {
			t.Fatal(err)
		}
		if pol != nil && wrap {
			agent.SetRetryPolicy(*pol)
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
	a := mk(1, true)
	b := mk(2, false)
	plugFlakyEcho(t, b)
	return a, b
}

func echoCall(t *testing.T, a *executive.Executive, target i2o.TID, b byte) error {
	t.Helper()
	m, err := a.AllocMessage(1)
	if err != nil {
		t.Fatal(err)
	}
	m.Payload[0] = b
	m.Target = target
	m.Initiator = i2o.TIDExecutive
	m.XFunction = 1
	rep, err := a.Request(m)
	if err != nil {
		return err
	}
	if len(rep.Payload) != 1 || rep.Payload[0] != b {
		t.Fatalf("wrong echo payload % x", rep.Payload)
	}
	rep.Release()
	return nil
}

func TestRetryRecoversInjectedRefusals(t *testing.T) {
	// Every send is refused twice, then passes: only a policy with at
	// least 3 attempts can get a frame through.
	in := faults.New(1).Add(faults.Rule{Op: faults.Error, Nth: 1, Limit: 2})
	a, _ := retryPair(t, in, &pta.RetryPolicy{Attempts: 3, Backoff: time.Millisecond})
	target, err := a.Discover(2, "echo", 0)
	if err != nil {
		t.Fatalf("discover through faults: %v", err)
	}
	if err := echoCall(t, a, target, 7); err != nil {
		t.Fatalf("call despite retries: %v", err)
	}
	if n := a.Metrics().Counter("pta.retries").Value(); n < 2 {
		t.Fatalf("pta.retries = %d, want >= 2", n)
	}
	// The retried frames carried pool-backed payloads; nothing may leak.
	deadline := time.Now().Add(time.Second)
	for a.Allocator().Stats().InUse != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("buffers leaked across retries: %d in use", a.Allocator().Stats().InUse)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestNoRetryWithoutPolicy(t *testing.T) {
	in := faults.New(1).Add(faults.Rule{Op: faults.Error, Nth: 1}) // refuse every frame
	a, _ := retryPair(t, in, nil)
	_, err := a.Discover(2, "echo", 0)
	if err == nil {
		t.Fatal("discover succeeded through a transport refusing every frame")
	}
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("error %v does not surface the injected refusal", err)
	}
	if n := a.Metrics().Counter("pta.retries").Value(); n != 0 {
		t.Fatalf("pta.retries = %d without a policy", n)
	}
}

func TestRetryGivesUpOnPermanentErrors(t *testing.T) {
	// Non-transient errors (unknown node on loopback) must not be retried
	// even with an aggressive policy.
	fabric := loopback.NewFabric()
	e := executive.New(executive.Options{
		Name: "perm", Node: 1,
		RequestTimeout: 100 * time.Millisecond,
		Logf:           func(string, ...any) {},
	})
	defer e.Close()
	ep, err := fabric.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	agent, err := pta.New(e)
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	agent.SetRetryPolicy(pta.RetryPolicy{Attempts: 5, Backoff: time.Millisecond})
	if err := agent.Register(ep, pta.Task); err != nil {
		t.Fatal(err)
	}
	e.SetRoute(9, loopback.DefaultName) // node 9 never attaches

	start := time.Now()
	err = agent.Forward(loopback.DefaultName, 9, &i2o.Message{
		Target: i2o.TID(2), Initiator: i2o.TIDExecutive,
		Function: i2o.FuncPrivate, Org: i2o.OrgXDAQ, XFunction: 1,
	})
	if !errors.Is(err, loopback.ErrUnknownNode) {
		t.Fatalf("err = %v, want ErrUnknownNode", err)
	}
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Fatalf("permanent error took %v; was it retried with backoff?", d)
	}
	if n := e.Metrics().Counter("pta.retries").Value(); n != 0 {
		t.Fatalf("pta.retries = %d for a permanent error", n)
	}
}

func TestExponentialBackoffIsBounded(t *testing.T) {
	in := faults.New(1).Add(faults.Rule{Op: faults.Error, Nth: 1, Limit: 3})
	a, _ := retryPair(t, in, &pta.RetryPolicy{
		Attempts: 4, Backoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond,
	})
	start := time.Now()
	if _, err := a.Discover(2, "echo", 0); err != nil {
		t.Fatalf("discover: %v", err)
	}
	// 1 + 2 + 2 ms of backoff, plus scheduling slack; an uncapped policy
	// would be 1 + 2 + 4.  The assertion only guards against runaway
	// backoff (seconds), not exact timing.
	if d := time.Since(start); d > 200*time.Millisecond {
		t.Fatalf("bounded backoff took %v", d)
	}
}
