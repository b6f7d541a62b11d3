package tid

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"

	"xdaq/internal/i2o"
)

func TestAllocLocalAssignsSequentialTIDs(t *testing.T) {
	tbl := NewTable()
	e1, err := tbl.AllocLocal("ping", 0)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := tbl.AllocLocal("ping", 1)
	if err != nil {
		t.Fatal(err)
	}
	if e1.TID == e2.TID || !e1.TID.Valid() || !e2.TID.Valid() {
		t.Fatalf("tids %v %v", e1.TID, e2.TID)
	}
	if e1.Kind != Local || e1.Class != "ping" || e1.Instance != 0 {
		t.Fatalf("entry %+v", e1)
	}
}

func TestClaimExecutive(t *testing.T) {
	tbl := NewTable()
	e, err := tbl.Claim(i2o.TIDExecutive, "executive", 0)
	if err != nil {
		t.Fatal(err)
	}
	if e.TID != i2o.TIDExecutive {
		t.Fatalf("claimed %v", e.TID)
	}
	if _, err := tbl.Claim(i2o.TIDExecutive, "other", 0); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("re-claim: %v", err)
	}
	// Subsequent allocation must skip the claimed TiD.
	e2, err := tbl.AllocLocal("app", 0)
	if err != nil {
		t.Fatal(err)
	}
	if e2.TID == i2o.TIDExecutive {
		t.Fatal("allocator handed out a claimed TiD")
	}
}

func TestClaimInvalid(t *testing.T) {
	tbl := NewTable()
	if _, err := tbl.Claim(i2o.TIDNone, "x", 0); err == nil {
		t.Fatal("claimed TIDNone")
	}
	if _, err := tbl.Claim(i2o.TIDMax+1, "x", 0); err == nil {
		t.Fatal("claimed out-of-range TiD")
	}
}

func TestDuplicateName(t *testing.T) {
	tbl := NewTable()
	if _, err := tbl.AllocLocal("app", 3); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.AllocLocal("app", 3); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate name: %v", err)
	}
	// Same class+instance on a different node is a distinct name.
	if _, err := tbl.AllocProxy("app", 3, 7, "tcp", 9); err != nil {
		t.Fatalf("proxy with same class/instance: %v", err)
	}
	// The failed registration must not leak its TiD: allocate the
	// remaining space and count.
	n := tbl.Len()
	for {
		if _, err := tbl.AllocLocal("fill", n); err != nil {
			break
		}
		n++
	}
	if got := tbl.Len(); got != int(i2o.TIDMax) {
		t.Fatalf("filled table holds %d entries, want %d", got, int(i2o.TIDMax))
	}
}

func TestProxyEntry(t *testing.T) {
	tbl := NewTable()
	e, err := tbl.AllocProxy("ReadoutUnit", 2, 5, "pt.gm", 0x42)
	if err != nil {
		t.Fatal(err)
	}
	if e.Kind != Proxy || e.Node != 5 || e.Route != "pt.gm" || e.Remote != 0x42 {
		t.Fatalf("entry %+v", e)
	}
	got, ok := tbl.Resolve("ReadoutUnit", 2, 5)
	if !ok || got.TID != e.TID {
		t.Fatalf("Resolve = %+v, %v", got, ok)
	}
	if _, err := tbl.AllocProxy("x", 0, 5, "pt.gm", i2o.TIDNone); err == nil {
		t.Fatal("proxy with invalid remote TiD accepted")
	}
}

func TestLookupAndRelease(t *testing.T) {
	tbl := NewTable()
	e, _ := tbl.AllocLocal("app", 0)
	if _, ok := tbl.Lookup(e.TID); !ok {
		t.Fatal("Lookup missed registered entry")
	}
	if err := tbl.Release(e.TID); err != nil {
		t.Fatal(err)
	}
	if _, ok := tbl.Lookup(e.TID); ok {
		t.Fatal("Lookup found released entry")
	}
	if err := tbl.Release(e.TID); !errors.Is(err, ErrUnknown) {
		t.Fatalf("double release: %v", err)
	}
	// The name is free again after release.
	if _, err := tbl.AllocLocal("app", 0); err != nil {
		t.Fatalf("re-register released name: %v", err)
	}
}

func TestReleaseRecyclesTID(t *testing.T) {
	tbl := NewTable()
	e, _ := tbl.AllocLocal("a", 0)
	if err := tbl.Release(e.TID); err != nil {
		t.Fatal(err)
	}
	e2, _ := tbl.AllocLocal("b", 0)
	if e2.TID != e.TID {
		t.Fatalf("released TiD %v not recycled, got %v", e.TID, e2.TID)
	}
}

func TestExhaustion(t *testing.T) {
	tbl := NewTable()
	for i := 0; ; i++ {
		_, err := tbl.AllocLocal("fill", i)
		if err != nil {
			if !errors.Is(err, ErrExhausted) {
				t.Fatalf("unexpected error: %v", err)
			}
			if i != int(i2o.TIDMax) {
				t.Fatalf("exhausted after %d allocations, want %d", i, int(i2o.TIDMax))
			}
			return
		}
	}
}

func TestEntriesSorted(t *testing.T) {
	tbl := NewTable()
	for i := 0; i < 20; i++ {
		if _, err := tbl.AllocLocal("app", i); err != nil {
			t.Fatal(err)
		}
	}
	es := tbl.Entries()
	if len(es) != 20 {
		t.Fatalf("Entries len %d", len(es))
	}
	for i := 1; i < len(es); i++ {
		if es[i-1].TID >= es[i].TID {
			t.Fatal("Entries not sorted by TiD")
		}
	}
}

func TestProxiesByRoute(t *testing.T) {
	tbl := NewTable()
	if _, err := tbl.AllocLocal("local", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.AllocProxy("r", 0, 1, "pt.gm", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.AllocProxy("r", 1, 2, "pt.tcp", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.AllocProxy("r", 2, 3, "pt.gm", 2); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range tbl.Entries() {
		if e.Route == "pt.gm" {
			if e.Kind != Proxy {
				t.Fatalf("bad proxy row %+v", e)
			}
			n++
		}
	}
	if n != 2 {
		t.Fatalf("%d entries routed over pt.gm, want 2", n)
	}
}

func TestConcurrentAllocation(t *testing.T) {
	tbl := NewTable()
	var wg sync.WaitGroup
	const goroutines, per = 8, 100
	tids := make([][]i2o.TID, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				e, err := tbl.AllocLocal("conc", g*per+i)
				if err != nil {
					t.Errorf("alloc: %v", err)
					return
				}
				tids[g] = append(tids[g], e.TID)
			}
		}(g)
	}
	wg.Wait()
	seen := make(map[i2o.TID]bool)
	for _, list := range tids {
		for _, id := range list {
			if seen[id] {
				t.Fatalf("TiD %v handed out twice", id)
			}
			seen[id] = true
		}
	}
	if tbl.Len() != goroutines*per {
		t.Fatalf("table len %d", tbl.Len())
	}
}

func TestQuickAllocReleaseInvariant(t *testing.T) {
	// Any interleaving of allocations and releases keeps Len consistent
	// and never hands out a TiD twice concurrently.
	f := func(ops []bool) bool {
		tbl := NewTable()
		live := map[i2o.TID]bool{}
		n := 0
		for i, alloc := range ops {
			if alloc || len(live) == 0 {
				e, err := tbl.AllocLocal("q", i)
				if err != nil {
					return false
				}
				if live[e.TID] {
					return false
				}
				live[e.TID] = true
				n++
			} else {
				for id := range live {
					if tbl.Release(id) != nil {
						return false
					}
					delete(live, id)
					n--
					break
				}
			}
			if tbl.Len() != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEntryString(t *testing.T) {
	tbl := NewTable()
	l, _ := tbl.AllocLocal("app", 0)
	p, _ := tbl.AllocProxy("app", 1, 2, "pt.tcp", 3)
	if l.String() == "" || p.String() == "" || Local.String() == Proxy.String() {
		t.Fatal("string forms")
	}
}
