package executive

import (
	"fmt"
	"sort"
	"sync"

	"xdaq/internal/device"
	"xdaq/internal/i2o"
)

// Factory builds one device-class instance from ExecPlugin parameters.
type Factory func(instance int, params []i2o.Param) (*device.Device, error)

// The module registry substitutes for the paper's dynamic code download:
// C++ XDAQ compiled device classes to shared objects and downloaded them
// into running executives at configuration time.  Go binaries cannot load
// object code at runtime, so modules register a factory under a name at
// program start and ExecPlugin instantiates by name — the configuration
// flow (plug by message, TiD assigned, parameters retrieved) is preserved.
var (
	regMu    sync.RWMutex
	registry = make(map[string]Factory)
)

// RegisterModule makes a device-class factory available to ExecPlugin
// messages under the given name.  It panics on duplicate names, like
// database/sql.Register.
func RegisterModule(name string, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("executive: module %q registered twice", name))
	}
	registry[name] = f
}

// Instantiate builds a device from a registered module factory.
func Instantiate(name string, instance int, params []i2o.Param) (*device.Device, error) {
	regMu.RLock()
	f, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("executive: unknown module %q", name)
	}
	return f(instance, params)
}

// Modules returns the registered module names, sorted.
func Modules() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
