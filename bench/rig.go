package main

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"xdaq"
)

// config is what a workload is built from.
type config struct {
	seed int64

	// dir is where eb-store-8ru keeps its segment files.
	dir string

	// scale shrinks the fixed-count warm-ups and event-builder rounds;
	// 1 outside tests.
	scale float64

	// corruptEcho makes the rr echo device flip one reply byte, so the
	// smoke test can show that the oracle counts it.
	corruptEcho bool
}

// scaled returns n ops at the configured scale, at least min.
func (c config) scaled(n, min int) int {
	if s := int(float64(n) * c.scale); s > min {
		return s
	}
	return min
}

// workload is one closed-loop experiment over the public API, all of
// whose nodes live in this process.
type workload interface {
	// setup builds and wires the nodes, then warms them with a fixed
	// number of ops; setup_s times it.
	setup() error

	// measure drives the closed loop for d and checks every output.  A
	// nil tracer is the untraced run.
	measure(d time.Duration, tr *tracer) (measured, error)

	// nodes lists the nodes whose counters the traced run reads.
	nodes() []*xdaq.Node

	// frameSize is the payload size the per-layer probes run at.
	frameSize() int

	close()
}

// measured is the outcome of one measured interval on one rig.
type measured struct {
	ops       uint64 // ops completed inside the counted windows
	attempted uint64
	failed    uint64

	// rates holds one ops/s value per window (rr, stream) or round (eb).
	rates []float64

	// lat holds the latency samples in ns; cuts[i] is the sample count at
	// the end of window i.
	lat  []int32
	cuts []int

	// extra holds the counts only the workload can make, for the
	// per-layer report: send_retries and delivery_p50_us on stream-*;
	// ru_served, bu_stale, bu_write_stalls, storage_bytes, storage_flushes,
	// storage_stalls and readback_mb_per_s on eb-*.
	extra map[string]float64
}

// merge appends another rig's interval to m.
func (m *measured) merge(o measured) {
	m.ops += o.ops
	m.attempted += o.attempted
	m.failed += o.failed
	m.rates = append(m.rates, o.rates...)
	for _, c := range o.cuts {
		m.cuts = append(m.cuts, len(m.lat)+c)
	}
	m.lat = append(m.lat, o.lat...)
}

// opsPerS is the median window rate.
func (m *measured) opsPerS() float64 { return median(slices.Clone(m.rates)) }

// windowsPerRig is how many equal windows one rig's measured interval is
// cut into: rates and p99s are taken per window.
const windowsPerRig = 3

func quiet(string, ...any) {}

// newNodes builds n nodes numbered from 1.
func newNodes(n int, timeout time.Duration) ([]*xdaq.Node, error) {
	nodes := make([]*xdaq.Node, 0, n)
	for i := 1; i <= n; i++ {
		node, err := xdaq.NewNode(xdaq.NodeOptions{
			Name:           fmt.Sprintf("n%d", i),
			Node:           xdaq.NodeID(i),
			RequestTimeout: timeout,
			Logf:           quiet,
		})
		if err != nil {
			closeNodes(nodes)
			return nil, err
		}
		nodes = append(nodes, node)
	}
	return nodes, nil
}

func closeNodes(nodes []*xdaq.Node) {
	for _, n := range nodes {
		n.Close()
	}
}

// seededBytes returns n bytes drawn from the seed; stream selects
// independent streams of one seed.
func seededBytes(seed int64, stream, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed*1000003 + int64(stream))).Read(b)
	return b
}
