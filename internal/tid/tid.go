// Package tid implements Target ID allocation and the address table that
// gives XDAQ its transparency of location (§3.4 of the paper).
//
// Every device instance — software or hardware module — gets a numeric TiD
// that is unique within one IOP.  To communicate with a remote device, the
// executive creates a *proxy* entry: a local TiD bound to routing
// information (which peer transport, which node, which TiD over there).
// The caller never needs to know whether a device is really local or
// whether the call is redirected — the Proxy pattern.
package tid

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"xdaq/internal/i2o"
)

// Kind distinguishes local modules from proxies for remote devices.
type Kind int

const (
	// Local marks a device module registered with this executive.
	Local Kind = iota

	// Proxy marks a local alias for a device on a remote IOP; frames sent
	// to it are forwarded by the peer transport agent.
	Proxy
)

func (k Kind) String() string {
	if k == Local {
		return "local"
	}
	return "proxy"
}

// Entry is one address table row.
type Entry struct {
	TID      i2o.TID
	Kind     Kind
	Class    string // device class name, e.g. "pt.gm" or "ReadoutUnit"
	Instance int    // instance number within the class

	// Proxy routing information (zero for local entries).
	Node   i2o.NodeID // remote IOP
	Route  string     // peer transport carrying frames to Node
	Remote i2o.TID    // the device's TiD on the remote IOP
}

func (e Entry) String() string {
	if e.Kind == Local {
		return fmt.Sprintf("%v %s[%d] local", e.TID, e.Class, e.Instance)
	}
	return fmt.Sprintf("%v %s[%d] proxy -> %v %v via %s", e.TID, e.Class, e.Instance, e.Node, e.Remote, e.Route)
}

// Errors.
var (
	// ErrExhausted reports that all 4094 allocatable TiDs are in use.
	ErrExhausted = errors.New("tid: address space exhausted")

	// ErrDuplicate reports a second registration of the same
	// (class, instance, node) or an already-claimed TiD.
	ErrDuplicate = errors.New("tid: duplicate registration")

	// ErrUnknown reports a lookup or release of an unregistered TiD.
	ErrUnknown = errors.New("tid: unknown target")
)

type nameKey struct {
	class    string
	instance int
	node     i2o.NodeID
}

// Table is one IOP's address table.  It is safe for concurrent use.
type Table struct {
	mu      sync.RWMutex
	entries map[i2o.TID]Entry
	byName  map[nameKey]i2o.TID
	next    i2o.TID
	free    []i2o.TID
}

// NewTable returns an empty table.  TiD 1 (the executive) is not
// pre-claimed; executives claim it explicitly with Claim.
func NewTable() *Table {
	return &Table{
		entries: make(map[i2o.TID]Entry),
		byName:  make(map[nameKey]i2o.TID),
		next:    i2o.TIDExecutive, // allocation starts at 1
	}
}

// alloc picks the next free TiD; callers hold t.mu.
func (t *Table) alloc() (i2o.TID, error) {
	if n := len(t.free); n > 0 {
		id := t.free[n-1]
		t.free = t.free[:n-1]
		return id, nil
	}
	for t.next <= i2o.TIDMax {
		id := t.next
		t.next++
		if _, taken := t.entries[id]; !taken {
			return id, nil
		}
	}
	return i2o.TIDNone, ErrExhausted
}

func (t *Table) insert(e Entry) (Entry, error) {
	key := nameKey{e.Class, e.Instance, e.Node}
	if prev, ok := t.byName[key]; ok {
		return Entry{}, fmt.Errorf("%w: %s[%d]@%v already %v", ErrDuplicate, e.Class, e.Instance, e.Node, prev)
	}
	t.entries[e.TID] = e
	t.byName[key] = e.TID
	return e, nil
}

// AllocLocal registers a local device module and returns its entry.
func (t *Table) AllocLocal(class string, instance int) (Entry, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	id, err := t.alloc()
	if err != nil {
		return Entry{}, err
	}
	e, err := t.insert(Entry{TID: id, Kind: Local, Class: class, Instance: instance})
	if err != nil {
		t.free = append(t.free, id)
	}
	return e, err
}

// AllocProxy registers a proxy for a device on a remote IOP and returns the
// local entry.  Frames targeted at the returned TiD are forwarded over the
// named route.
func (t *Table) AllocProxy(class string, instance int, node i2o.NodeID, route string, remote i2o.TID) (Entry, error) {
	if !remote.Valid() {
		return Entry{}, fmt.Errorf("%w: remote %v", ErrUnknown, remote)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id, err := t.alloc()
	if err != nil {
		return Entry{}, err
	}
	e, err := t.insert(Entry{
		TID: id, Kind: Proxy, Class: class, Instance: instance,
		Node: node, Route: route, Remote: remote,
	})
	if err != nil {
		t.free = append(t.free, id)
	}
	return e, err
}

// Claim registers a local device under a specific TiD.  Used for the
// well-known addresses (the executive claims i2o.TIDExecutive).
func (t *Table) Claim(id i2o.TID, class string, instance int) (Entry, error) {
	if !id.Valid() {
		return Entry{}, fmt.Errorf("%w: %v", ErrUnknown, id)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, taken := t.entries[id]; taken {
		return Entry{}, fmt.Errorf("%w: %v", ErrDuplicate, id)
	}
	return t.insert(Entry{TID: id, Kind: Local, Class: class, Instance: instance})
}

// Lookup returns the entry for id.
func (t *Table) Lookup(id i2o.TID) (Entry, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	e, ok := t.entries[id]
	return e, ok
}

// Resolve finds the TiD registered for (class, instance) on the given node
// (i2o.NodeNone for local modules).
func (t *Table) Resolve(class string, instance int, node i2o.NodeID) (Entry, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	id, ok := t.byName[nameKey{class, instance, node}]
	if !ok {
		return Entry{}, false
	}
	return t.entries[id], true
}

// Release removes an entry and returns its TiD to the free list.
func (t *Table) Release(id i2o.TID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[id]
	if !ok {
		return fmt.Errorf("%w: %v", ErrUnknown, id)
	}
	delete(t.entries, id)
	delete(t.byName, nameKey{e.Class, e.Instance, e.Node})
	t.free = append(t.free, id)
	return nil
}

// Len returns the number of registered entries.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.entries)
}

// Entries returns a snapshot of all rows, ordered by TiD.  This backs the
// ExecHrtGet (hardware resource table) executive message.
func (t *Table) Entries() []Entry {
	t.mu.RLock()
	out := make([]Entry, 0, len(t.entries))
	for _, e := range t.entries {
		out = append(out, e)
	}
	t.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].TID < out[j].TID })
	return out
}

// Reroute repoints every proxy for the given node at a different peer
// transport route and reports how many entries changed.  The table lock
// makes the switch atomic with respect to Lookup: a concurrent forward
// sees either the old route or the new one, never a torn entry.
func (t *Table) Reroute(node i2o.NodeID, route string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for id, e := range t.entries {
		if e.Kind == Proxy && e.Node == node && e.Route != route {
			e.Route = route
			t.entries[id] = e
			n++
		}
	}
	return n
}
