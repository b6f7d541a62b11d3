package daq

import (
	"testing"

	"xdaq/internal/i2o"
	"xdaq/internal/metrics"
)

func gauge(t *testing.T, reg *metrics.Registry, name string) int64 {
	t.Helper()
	for _, s := range reg.Snapshot() {
		if s.Name == name {
			return s.Value
		}
	}
	t.Fatalf("no gauge %s", name)
	return 0
}

// TestRUGaugesSumOverNode packs eight readout units onto one node: the
// daq.ru.* names must read the sum over all of them (the last one plugged
// used to replace the others), and an unplugged unit takes its share with
// it.
func TestRUGaugesSumOverNode(t *testing.T) {
	const (
		events = 20
		nRU    = 8
	)
	r := buildRig(t, 1, 1, events, 64)
	ruExec, buExec := r.execs[2], r.execs[3]
	tids := make([]i2o.TID, nRU)
	last := r.rus[0].Device().TID()
	for i := 0; i < nRU; i++ {
		if i > 0 {
			ru := NewRU(i, 64)
			id, err := ruExec.Plug(ru.Device())
			if err != nil {
				t.Fatal(err)
			}
			r.rus, last = append(r.rus, ru), id
		}
		var err error
		if tids[i], err = buExec.Discover(2, RUClass, i); err != nil {
			t.Fatal(err)
		}
	}
	evmTID, err := buExec.Discover(1, EVMClass, 0)
	if err != nil {
		t.Fatal(err)
	}
	r.bus[0].Configure(evmTID, tids)
	if _, err := r.bus[0].Start(0, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := r.bus[0].Wait(); err != nil {
		t.Fatal(err)
	}
	for i, ru := range r.rus {
		if ru.Served() != events {
			t.Fatalf("ru %d served %d, want %d", i, ru.Served(), events)
		}
	}
	if got := gauge(t, ruExec.Metrics(), "daq.ru.served"); got != nRU*events {
		t.Fatalf("daq.ru.served = %d with %d RUs on the node, want %d", got, nRU, nRU*events)
	}
	if got := gauge(t, buExec.Metrics(), "daq.bu.built"); got != events {
		t.Fatalf("daq.bu.built = %d, want %d", got, events)
	}
	if err := ruExec.Unplug(last); err != nil {
		t.Fatal(err)
	}
	if got := gauge(t, ruExec.Metrics(), "daq.ru.served"); got != (nRU-1)*events {
		t.Fatalf("daq.ru.served = %d after unplugging one RU, want %d", got, (nRU-1)*events)
	}
}
