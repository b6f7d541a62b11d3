package modules

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"xdaq/internal/daq"
	"xdaq/internal/executive"
	"xdaq/internal/i2o"
	"xdaq/internal/storage"
)

func newExec(t *testing.T) *executive.Executive {
	t.Helper()
	e := executive.New(executive.Options{
		Name: "mods", Node: 1,
		RequestTimeout: 2 * time.Second,
		Logf:           func(string, ...any) {},
	})
	t.Cleanup(e.Close)
	return e
}

func TestAllStandardModulesRegistered(t *testing.T) {
	want := map[string]bool{"echo": false, "daq.evm": false, "daq.ru": false, "daq.bu": false, "i2o.bsa": false, "storage.sw": false}
	for _, name := range executive.Modules() {
		if _, ok := want[name]; ok {
			want[name] = true
		}
	}
	for name, found := range want {
		if !found {
			t.Errorf("module %q not registered", name)
		}
	}
}

// The storage.sw module opens its segment at plug time and closes it
// cleanly (footer written) at unplug, so a controller can deploy and
// retire stripes with ExecPlugin alone.
func TestStorageWriterModule(t *testing.T) {
	e := newExec(t)
	dir := t.TempDir()
	d, err := executive.Instantiate("storage.sw", 2, []i2o.Param{{Key: "dir", Value: dir}})
	if err != nil {
		t.Fatal(err)
	}
	id, err := e.Plug(d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "seg-002.xseg")); err != nil {
		t.Fatalf("plug did not open the segment: %v", err)
	}
	if err := e.Unplug(id); err != nil {
		t.Fatal(err)
	}
	// A clean close leaves a footer: reopening recovers without a scan
	// truncation and the writer is attachable again.
	w, err := storage.Open(storage.Options{Dir: dir, Instance: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if st := w.Stats(); st.Truncations != 0 {
		t.Fatalf("clean unplug left a torn segment: %+v", st)
	}

	if _, err := executive.Instantiate("storage.sw", 0, nil); err == nil {
		t.Fatal("storage.sw without dir did not error")
	}
}

func TestEchoModule(t *testing.T) {
	e := newExec(t)
	d, err := executive.Instantiate("echo", 3, []i2o.Param{{Key: "note", Value: "hi"}})
	if err != nil {
		t.Fatal(err)
	}
	if d.Class() != "echo" || d.Instance() != 3 {
		t.Fatalf("device %v", d)
	}
	if v, _ := d.Params().Get("note"); v != "hi" {
		t.Fatal("plug-time parameter not applied")
	}
	id, err := e.Plug(d)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Request(&i2o.Message{
		Target: id, Initiator: i2o.TIDExecutive,
		Function: i2o.FuncPrivate, Org: i2o.OrgXDAQ, XFunction: 1,
		Payload: []byte("roundtrip"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Release()
	if string(rep.Payload) != "roundtrip" {
		t.Fatalf("echo %q", rep.Payload)
	}
}

func TestEchoModuleFireAndForget(t *testing.T) {
	e := newExec(t)
	d, err := executive.Instantiate("echo", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	id, err := e.Plug(d)
	if err != nil {
		t.Fatal(err)
	}
	// No reply expected: must not generate one (would be dropped anyway,
	// but the handler path must not error either).
	if err := e.Send(&i2o.Message{
		Target: id, Initiator: i2o.TIDExecutive,
		Function: i2o.FuncPrivate, Org: i2o.OrgXDAQ, XFunction: 1,
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for e.Stats().Dispatched == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if e.Stats().Failures != 0 {
		t.Fatalf("stats %+v", e.Stats())
	}
}

func TestDaqModulesHonorParams(t *testing.T) {
	evm, err := executive.Instantiate("daq.evm", 0, []i2o.Param{{Key: "events", Value: int64(17)}})
	if err != nil {
		t.Fatal(err)
	}
	if evm.Class() != daq.EVMClass {
		t.Fatalf("class %q", evm.Class())
	}
	if v, _ := evm.Params().Get("events"); v != int64(17) {
		t.Fatal("events parameter not applied")
	}

	ru, err := executive.Instantiate("daq.ru", 2, []i2o.Param{{Key: "fragsize", Value: int64(4096)}})
	if err != nil {
		t.Fatal(err)
	}
	if ru.Class() != daq.RUClass || ru.Instance() != 2 {
		t.Fatalf("ru %v", ru)
	}
	if v, _ := ru.Params().Get("fragsize"); v != int64(4096) {
		t.Fatal("fragsize parameter not applied")
	}

	bu, err := executive.Instantiate("daq.bu", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bu.Class() != daq.BUClass {
		t.Fatalf("bu %v", bu)
	}
}

func TestPluggableEndToEnd(t *testing.T) {
	// The full path a controller uses: ExecPlugin message -> module
	// factory -> device serving requests.
	e := newExec(t)
	payload, err := i2o.EncodeParams([]i2o.Param{
		{Key: "module", Value: "daq.ru"},
		{Key: "instance", Value: int64(0)},
		{Key: "fragsize", Value: int64(256)},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Request(&i2o.Message{
		Target: i2o.TIDExecutive, Initiator: i2o.TIDExecutive,
		Function: i2o.ExecPlugin, Payload: payload,
	})
	if err != nil {
		t.Fatal(err)
	}
	params, _ := i2o.DecodeParams(rep.Payload)
	rep.Release()
	ruTID := i2o.TID(params[0].Value.(int64))

	// Ask the plugged RU for a one-event block.
	req := daq.EncodeFragReq(daq.FragReq{BU: 0, First: 9, Count: 1})
	rep, err = e.Request(&i2o.Message{
		Target: ruTID, Initiator: i2o.TIDExecutive,
		Function: i2o.FuncPrivate, Org: i2o.OrgXDAQ, XFunction: daq.XFuncFragment,
		Payload: req,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Release()
	frep, err := daq.DecodeFragRep(rep.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(frep.Frags) != 1 || frep.Frags[0].Event != 9 || len(frep.Frags[0].Data) != 256 {
		t.Fatalf("fragment reply %+v", frep)
	}
}
