package device

import "xdaq/internal/i2o"

// ReplyIfExpected sends a success reply with the given payload when the
// request asked for one.  Handlers use it so that fire-and-forget senders
// never receive unsolicited frames (a DDM "can only reply to messages").
func ReplyIfExpected(ctx *Context, req *i2o.Message, payload []byte) error {
	if !req.Flags.Has(i2o.FlagReplyExpected) {
		return nil
	}
	rep := i2o.NewReply(req)
	rep.Payload = payload
	return ctx.Host.Send(rep)
}

// defaultStandard returns the built-in behaviour for a standard function
// code, or nil when there is none.  These are the "default procedures"
// §3.2 promises for events without user code, giving every device a
// homogeneous, fault-tolerant base behaviour.
func (d *Device) defaultStandard(fn i2o.Function) Handler {
	switch fn {
	case i2o.UtilNOP:
		return func(ctx *Context, m *i2o.Message) error {
			return ReplyIfExpected(ctx, m, nil)
		}
	case i2o.UtilAbort:
		return func(ctx *Context, m *i2o.Message) error {
			return ReplyIfExpected(ctx, m, nil)
		}
	case i2o.UtilParamsGet:
		return d.handleParamsGet
	case i2o.UtilParamsSet:
		return d.handleParamsSet
	case i2o.UtilEventRegister:
		return d.handleEventRegister
	case i2o.ExecSysEnable:
		return func(ctx *Context, m *i2o.Message) error {
			d.SetState(Operational)
			return ReplyIfExpected(ctx, m, nil)
		}
	case i2o.ExecSysQuiesce:
		return func(ctx *Context, m *i2o.Message) error {
			d.SetState(Quiesced)
			return ReplyIfExpected(ctx, m, nil)
		}
	case i2o.ExecSysClear:
		return func(ctx *Context, m *i2o.Message) error {
			return ReplyIfExpected(ctx, m, nil)
		}
	}
	return nil
}

func (d *Device) handleParamsGet(ctx *Context, m *i2o.Message) error {
	keys, err := i2o.DecodeKeys(m.Payload)
	if err != nil {
		return err
	}
	var params []i2o.Param
	if len(keys) == 0 {
		params = d.params.All()
	} else {
		for _, k := range keys {
			if v, ok := d.params.Get(k); ok {
				params = append(params, i2o.Param{Key: k, Value: v})
			}
		}
	}
	// State is computed, not stored.
	if len(keys) == 0 {
		params = append(params, i2o.Param{Key: "state", Value: d.State().String()})
		i2o.SortParams(params)
	}
	payload, err := i2o.EncodeParams(params)
	if err != nil {
		return err
	}
	return ReplyIfExpected(ctx, m, payload)
}

func (d *Device) handleParamsSet(ctx *Context, m *i2o.Message) error {
	params, err := i2o.DecodeParams(m.Payload)
	if err != nil {
		return err
	}
	for _, p := range params {
		d.params.Set(p.Key, p.Value)
	}
	d.params.notifySet(params)
	return ReplyIfExpected(ctx, m, nil)
}

func (d *Device) handleEventRegister(ctx *Context, m *i2o.Message) error {
	d.subMu.Lock()
	if d.subscribers == nil {
		d.subscribers = make(map[i2o.TID]bool)
	}
	d.subscribers[m.Initiator] = true
	d.subMu.Unlock()
	return ReplyIfExpected(ctx, m, nil)
}

// Notify sends a private event frame with the given extended function code
// and payload to every registered subscriber (UtilEventRegister).  Failures
// to individual subscribers are reported to the executive log but do not
// stop the fan-out.
func (d *Device) Notify(xfunc uint16, priority i2o.Priority, payload []byte) error {
	ctx, err := d.Ctx()
	if err != nil {
		return err
	}
	d.subMu.RLock()
	targets := make([]i2o.TID, 0, len(d.subscribers))
	for t := range d.subscribers {
		targets = append(targets, t)
	}
	d.subMu.RUnlock()
	for _, t := range targets {
		m := &i2o.Message{
			Priority:  priority,
			Target:    t,
			Initiator: d.TID(),
			Function:  i2o.FuncPrivate,
			Org:       i2o.OrgXDAQ,
			XFunction: xfunc,
			Payload:   payload,
		}
		if err := ctx.Host.Send(m); err != nil {
			ctx.Host.Logf("device %s: notify %v: %v", d.class, t, err)
		}
	}
	return nil
}

// Subscribers returns the TiDs registered for event notification.
func (d *Device) Subscribers() []i2o.TID {
	d.subMu.RLock()
	defer d.subMu.RUnlock()
	out := make([]i2o.TID, 0, len(d.subscribers))
	for t := range d.subscribers {
		out = append(out, t)
	}
	return out
}
