// Package e2e_test exercises the deployment described in the paper's own
// benchmark setup (§5): "The Myrinet/GM PT ran as a thread.  Another PT
// thread was handling TCP communication for configuration and control
// purposes."  Two processing nodes exchange data over the simulated GM
// fabric while a primary host configures and controls them over real TCP
// sockets — two peer transports live on each executive, selected per
// route.
package e2e_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"xdaq/internal/cluster"
	"xdaq/internal/daq"
	"xdaq/internal/executive"
	"xdaq/internal/i2o"
	_ "xdaq/internal/modules"
	"xdaq/internal/pta"
	"xdaq/internal/tclish"
	"xdaq/internal/transport/gm"
	"xdaq/internal/transport/tcp"
)

// node is one cluster member with both transports registered.
type node struct {
	exec  *executive.Executive
	agent *pta.Agent
	tcp   *tcp.Transport
	gmTr  *gm.Transport
}

// buildMixedCluster wires a host (node 100, TCP only) and two workers
// (nodes 1 and 2, TCP for control + GM for data).
func buildMixedCluster(t *testing.T) (host *node, workers map[i2o.NodeID]*node) {
	t.Helper()
	fabric := gm.NewFabric()
	gmRoutes := map[i2o.NodeID]gm.Port{1: 1, 2: 2}

	mk := func(id i2o.NodeID, withGM bool) *node {
		e := executive.New(executive.Options{
			Name: "e2e", Node: id,
			RequestTimeout: 3 * time.Second,
			Logf:           func(string, ...any) {},
		})
		agent, err := pta.New(e)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := tcp.New(id, e.Allocator(), tcp.Config{Listen: "127.0.0.1:0", Metrics: e.Metrics()})
		if err != nil {
			t.Fatal(err)
		}
		if err := agent.Register(tr, pta.Task); err != nil {
			t.Fatal(err)
		}
		n := &node{exec: e, agent: agent, tcp: tr}
		if withGM {
			nic, err := fabric.Open(gmRoutes[id])
			if err != nil {
				t.Fatal(err)
			}
			n.gmTr, err = gm.NewTransport(nic, e.Allocator(), gm.Config{Routes: gmRoutes})
			if err != nil {
				t.Fatal(err)
			}
			if err := agent.Register(n.gmTr, pta.Task); err != nil {
				t.Fatal(err)
			}
		}
		t.Cleanup(func() {
			agent.Close()
			e.Close()
		})
		return n
	}

	host = mk(100, false)
	workers = map[i2o.NodeID]*node{1: mk(1, true), 2: mk(2, true)}

	// Control plane: everyone reaches everyone over TCP.
	all := map[i2o.NodeID]*node{100: host, 1: workers[1], 2: workers[2]}
	for idA, a := range all {
		for idB, b := range all {
			if idA == idB {
				continue
			}
			a.tcp.AddPeer(idB, b.tcp.Addr())
			a.exec.SetRoute(idB, tcp.PTName)
		}
	}
	// Data plane: the workers talk to each other over GM.
	workers[1].exec.SetRoute(2, gm.PTName)
	workers[2].exec.SetRoute(1, gm.PTName)
	return host, workers
}

func TestControlOverTCPDataOverGM(t *testing.T) {
	host, workers := buildMixedCluster(t)

	// The primary host plugs DAQ modules on the workers over TCP.
	ctl, err := cluster.NewPrimary(host.exec)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []i2o.NodeID{1, 2} {
		if err := ctl.AddNode(id, "worker"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ctl.Plug(1, "daq.evm", 0, []i2o.Param{{Key: "events", Value: int64(30)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Plug(1, "daq.ru", 0, []i2o.Param{{Key: "fragsize", Value: int64(512)}}); err != nil {
		t.Fatal(err)
	}

	// Worker 2 runs a builder unit whose event traffic crosses GM.
	bu := daq.NewBU(0)
	if _, err := workers[2].exec.Plug(bu.Device()); err != nil {
		t.Fatal(err)
	}
	evmTID, err := workers[2].exec.Discover(1, daq.EVMClass, 0)
	if err != nil {
		t.Fatal(err)
	}
	ruTID, err := workers[2].exec.Discover(1, daq.RUClass, 0)
	if err != nil {
		t.Fatal(err)
	}
	bu.Configure(evmTID, []i2o.TID{ruTID})
	if _, err := bu.Start(0, 4); err != nil {
		t.Fatal(err)
	}
	stats, err := bu.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Built != 30 || stats.Corrupt != 0 {
		t.Fatalf("built %d, corrupt %d", stats.Built, stats.Corrupt)
	}
	if want := uint64(30 * 512); stats.Bytes != want {
		t.Fatalf("bytes %d, want %d", stats.Bytes, want)
	}

	// The data plane really used GM, not TCP: worker GM NIC traffic.
	if workers[2].gmTr == nil {
		t.Fatal("no gm transport")
	}
	gmSent := workers[2].exec.Metrics().Counter("pta.sent").Value()
	if gmSent == 0 {
		t.Fatal("agent recorded no sends")
	}
	// And the control plane really used TCP.
	sent := host.exec.Metrics().Counter(tcp.PTName + ".sent").Value()
	if sent == 0 {
		t.Fatal("host sent nothing over TCP")
	}

	// The host can read the run's results back over TCP.
	params, err := ctl.GetParams(1, daq.RUClass, 0, []string{"fragsize"})
	if err != nil {
		t.Fatal(err)
	}
	if len(params) != 1 || params[0].Value != int64(512) {
		t.Fatalf("params %v", params)
	}
}

func TestTclSessionDrivesMixedCluster(t *testing.T) {
	host, workers := buildMixedCluster(t)
	ctl, err := cluster.NewPrimary(host.exec)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []i2o.NodeID{1, 2} {
		if err := ctl.AddNode(id, "worker"); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	in := tclish.New(&out)
	ctl.Bind(in)
	script := `
foreach n [nodes] {
    plug $n echo 0
    puts "node $n: [status $n]"
}
quiesce all
enable all
`
	if _, err := in.Eval(script); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "node 1:") || !strings.Contains(out.String(), "state operational") {
		t.Fatalf("session output:\n%s", out.String())
	}
	// The plugged echo devices answer over the GM data plane.
	target, err := workers[1].exec.Discover(2, "echo", 0)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := workers[1].exec.Request(&i2o.Message{
		Target: target, Initiator: i2o.TIDExecutive,
		Function: i2o.FuncPrivate, Org: i2o.OrgXDAQ, XFunction: 1,
		Payload: []byte("via gm"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Release()
	if string(rep.Payload) != "via gm" {
		t.Fatalf("payload %q", rep.Payload)
	}
}
