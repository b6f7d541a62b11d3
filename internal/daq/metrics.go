package daq

import (
	"xdaq/internal/device"
	"xdaq/internal/metrics"
)

// The daq.* gauges mirror each device's atomic counters into the host
// executive's metrics registry, so `xdaqctl metrics <node>` (and the
// soak harness) can watch a run without touching device APIs.  A node
// can carry several readout or builder units, so their names read
// the sum over every instance plugged into the node; there is one event
// manager per cluster, and it owns its names outright.

// hostMetrics pulls the registry off hosts that carry one (the
// executive does; bare test fakes need not).
func hostMetrics(ctx *device.Context) *metrics.Registry {
	host, ok := ctx.Host.(interface{ Metrics() *metrics.Registry })
	if !ok {
		return nil
	}
	return host.Metrics()
}

func registerEVMMetrics(ctx *device.Context, e *EVM) {
	reg := hostMetrics(ctx)
	if reg == nil {
		return
	}
	reg.Func("daq.evm.allocated", func() int64 { return int64(e.Allocated()) })
	reg.Func("daq.evm.built", func() int64 { return int64(e.Built()) })
	reg.Func("daq.evm.duplicates", func() int64 { return int64(e.Duplicates()) })
	reg.Func("daq.evm.reassigned", func() int64 { return int64(e.Reassigned()) })
	reg.Func("daq.evm.shard.version", func() int64 { return int64(e.ShardVersion()) })
}

// nodeGauges publishes a device's counters as terms of its class's
// node-wide gauges; the terms leave with the device when it is unplugged.
func nodeGauges(ctx *device.Context, dev *device.Device, gauges map[string]func() int64) {
	reg := hostMetrics(ctx)
	if reg == nil {
		return
	}
	removes := make([]func(), 0, len(gauges))
	for name, fn := range gauges {
		removes = append(removes, reg.AddFunc(name, fn))
	}
	dev.OnUnplugged = func() {
		for _, remove := range removes {
			remove()
		}
	}
}

func registerRUMetrics(ctx *device.Context, r *RU) {
	nodeGauges(ctx, r.dev, map[string]func() int64{
		"daq.ru.served":  func() int64 { return int64(r.Served()) },
		"daq.ru.stale":   func() int64 { return int64(r.Stale()) },
		"daq.ru.refused": func() int64 { return int64(r.Refused()) },
	})
}

func registerBUMetrics(ctx *device.Context, b *BU) {
	nodeGauges(ctx, b.dev, map[string]func() int64{
		"daq.bu.built":        func() int64 { return int64(b.built.Load()) },
		"daq.bu.bytes":        func() int64 { return int64(b.bytes.Load()) },
		"daq.bu.corrupt":      func() int64 { return int64(b.corrupt.Load()) },
		"daq.bu.stale":        func() int64 { return int64(b.stale.Load()) },
		"daq.bu.lost":         func() int64 { return int64(b.lost.Load()) },
		"daq.bu.stored":       func() int64 { return int64(b.stored.Load()) },
		"daq.bu.write.stalls": func() int64 { return int64(b.wstalls.Load()) },
	})
}
