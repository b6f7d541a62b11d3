package main

// The workload and metric tables.  BENCHMARK.json at the repository root
// carries the same names, units and bounds for the driver; bench_test.go
// fails when the two disagree.

// workloadSpec names one workload and says why it exists.
type workloadSpec struct {
	Name string
	Why  string
	Op   string // what ops_per_s and op_p50_us count on this workload

	// TCP and Store say which layers are on the workload's path; the
	// traced run probes only those.
	TCP, Store bool

	new func(cfg config) workload
}

var workloads = []workloadSpec{
	{"rr-local-64B",
		"64 B echo call between two nodes on the in-process loopback fabric: executive, queue, pool and pta do the work, the transport none.",
		"call", false, false, func(cfg config) workload { return newRR(cfg, false, 150_000) }},
	{"rr-tcp-64B",
		"The same call over 127.0.0.1 TCP sockets: the tcp eager lane and i2o encode/decode dominate, so a dispatch-only gain should not move it.",
		"call", true, false, func(cfg config) workload { return newRR(cfg, true, 30_000) }},
	{"stream-tcp-64B",
		"Two senders stream one-way 64 B frames over TCP with 512 unacknowledged each: the only place ring coalescing happens, per-frame cost of the eager lane.",
		"frame", true, false, func(cfg config) workload { return newStream(cfg, 64, 512, 400_000) }},
	{"stream-tcp-16KiB",
		"The same stream with 16 KiB frames and window 64: rendezvous lane, credit window and large pool blocks, per-byte cost.",
		"frame", true, false, func(cfg config) workload { return newStream(cfg, 16384, 64, 20_000) }},
	{"eb-tree-64ru",
		"Event builder over loopback, 64 RUs x 512 B through fan-in-16 aggregators, no storage: shard map, aggregator combine and BU reassembly do the work.",
		"event", false, false, func(cfg config) workload { return newEB(cfg, ebTree) }},
	{"eb-store-8ru",
		"Full acquisition chain, 8 RUs x 1 KiB flat-wired into a BU that stripes built events to two segment writers on disk, read back and checked each round.",
		"event", false, true, func(cfg config) workload { return newEB(cfg, ebStore) }},
}

// metricSpec is one metric's name, unit and direction.  Bound is the
// share of the parent's median by which an end-to-end metric may worsen
// before a change counts as a regression; per-layer metrics have none.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd is what a user of the stack sees, measured with tracing and
// metrics timing off, on every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.15},
	{"op_p50_us", "us", "lower", 0.15},
}

// perLayer is reported by the traced run, ungated.  A layer that is not
// on a workload's path reports 0 there.
var perLayer = []metricSpec{
	{"executive.op_p99_us", "us", "lower", 0},
	{"pool.alloc_release_ns", "ns", "lower", 0},
	{"queue.push_pop_ns", "ns", "lower", 0},
	{"executive.local_call_us", "us", "lower", 0},
	{"executive.attributed_share", "ratio", "higher", 0},
	{"queue.wait_us", "us", "lower", 0},
	{"transport.hop_us", "us", "lower", 0},
	{"i2o.encode_decode_ns", "ns", "lower", 0},
	{"tcp.delivery_p50_us", "us", "lower", 0},
	{"tcp.frames_per_write", "ratio", "higher", 0},
	{"tcp.rendezvous_share", "ratio", "higher", 0},
	{"tcp.credit_stalls_per_kframe", "1/kframe", "lower", 0},
	{"tcp.ring_full_per_kframe", "1/kframe", "lower", 0},
	{"tcp.send_retries_per_kframe", "1/kframe", "lower", 0},
	{"daq.frames_per_event", "ratio", "lower", 0},
	{"daq.ru_served_per_event", "ratio", "lower", 0},
	{"daq.bu_stale_per_kevent", "1/kevent", "lower", 0},
	{"daq.bu_write_stalls_per_kevent", "1/kevent", "lower", 0},
	{"storage.append_ns", "ns", "lower", 0},
	{"storage.readback_mb_per_s", "MB/s", "higher", 0},
	{"storage.bytes_per_flush", "B", "higher", 0},
	{"storage.stalls_per_kevent", "1/kevent", "lower", 0},
	{"proc.allocs_per_op", "1/op", "lower", 0},
	{"proc.bytes_per_op", "B/op", "lower", 0},
	{"proc.gc_pause_ms", "ms", "lower", 0},
	{"proc.heap_peak_mb", "MB", "lower", 0},
	{"proc.cpu_s_per_wall_s", "ratio", "lower", 0},
	{"trace.overhead", "ratio", "lower", 0},
	{"host.spin_mops", "Mop/s", "higher", 0},
}
