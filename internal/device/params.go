package device

import (
	"fmt"
	"sync"

	"xdaq/internal/i2o"
)

// Params is a device's thread-safe parameter store, exposed to the cluster
// through UtilParamsGet/UtilParamsSet.  Values are restricted to the wire
// types of i2o.Param.
type Params struct {
	mu    sync.RWMutex
	m     map[string]any
	onSet func([]i2o.Param)
}

// NewParams returns an empty store.
func NewParams() *Params {
	return &Params{m: make(map[string]any)}
}

// Set stores a value.  Unsupported types are coerced via fmt.Sprint to a
// string so a buggy caller degrades to something inspectable rather than a
// silent drop.
func (p *Params) Set(key string, value any) {
	switch value.(type) {
	case string, int64, uint64, float64, bool, []byte:
	default:
		value = fmt.Sprint(value)
	}
	p.mu.Lock()
	p.m[key] = value
	p.mu.Unlock()
}

// Get returns the value for key.
func (p *Params) Get(key string) (any, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	v, ok := p.m[key]
	return v, ok
}

// All returns a snapshot of every parameter, unordered.
func (p *Params) All() []i2o.Param {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]i2o.Param, 0, len(p.m))
	for k, v := range p.m {
		out = append(out, i2o.Param{Key: k, Value: v})
	}
	return out
}

// OnSet installs a callback invoked after a UtilParamsSet frame updated the
// store, with the parameters that changed.  Devices use it to react to
// reconfiguration.
func (p *Params) OnSet(fn func([]i2o.Param)) {
	p.mu.Lock()
	p.onSet = fn
	p.mu.Unlock()
}

// notifySet invokes the OnSet callback, if any, outside the store lock.
func (p *Params) notifySet(changed []i2o.Param) {
	p.mu.RLock()
	fn := p.onSet
	p.mu.RUnlock()
	if fn != nil {
		fn(changed)
	}
}
