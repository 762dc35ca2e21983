package obs

// Event is one committed instruction: its lifetime through the pipeline
// in cycles, how value prediction treated it, and what it
// architecturally did. The producer emits events in commit order and
// reuses the Event value between calls — sinks that retain an event must
// copy it.
type Event struct {
	Seq       uint64 `json:"seq"`   // the run's 0-based commit index
	Index     int    `json:"index"` // static instruction index
	Fetch     int64  `json:"fetch"`
	Dispatch  int64  `json:"dispatch"`
	Issue     int64  `json:"issue"`
	Done      int64  `json:"done"`
	Commit    int64  `json:"commit"`
	Predicted bool   `json:"predicted"`
	Correct   bool   `json:"correct"`

	PC      uint64 `json:"pc"`       // simulated-memory address of the instruction
	WroteRd bool   `json:"wrote_rd"` // instruction architecturally wrote Rd
	Rd      int    `json:"rd"`       // destination register number (valid when WroteRd)
	Value   uint64 `json:"value"`    // value written to Rd (valid when WroteRd)
}

// EventSink consumes trace events. Emit is called in commit order from
// the simulation goroutine; sinks need not be safe for concurrent use.
// Close flushes buffered output and releases resources.
type EventSink interface {
	Emit(e *Event) error
	Close() error
}

// SinkFunc adapts a function into an EventSink that never fails and
// has nothing to close.
type SinkFunc func(e *Event)

// Emit implements EventSink.
func (f SinkFunc) Emit(e *Event) error {
	f(e)
	return nil
}

// Close implements EventSink.
func (SinkFunc) Close() error { return nil }

// Observer bundles what one observed run publishes into: a metrics
// registry and a chain of event sinks. A zero-sink observer costs the
// simulator only batched counter flushes; event assembly happens only
// when sinks are attached. The zero Observer has no registry: runs
// observed through it feed its sinks and publish no metrics.
type Observer struct {
	reg   *Registry
	sinks []EventSink
	err   error
}

// NewObserver returns an observer with a fresh registry and no sinks.
func NewObserver() *Observer { return &Observer{reg: NewRegistry()} }

// NewObserverWith returns an observer publishing into an existing
// registry (for aggregating several runs).
func NewObserverWith(reg *Registry) *Observer {
	if reg == nil {
		reg = NewRegistry()
	}
	return &Observer{reg: reg}
}

// Registry returns the observer's metrics registry (nil for a nil or
// zero Observer).
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// AddSink appends an event sink.
func (o *Observer) AddSink(s EventSink) { o.sinks = append(o.sinks, s) }

// HasSinks reports whether any event sink is attached. Producers use it
// to skip event assembly entirely on unobserved-event runs.
func (o *Observer) HasSinks() bool { return o != nil && len(o.sinks) > 0 }

// Emit forwards the event to every sink. The producer stamps e.Seq. The
// first sink error is retained (see Err) and that sink is not called
// again.
func (o *Observer) Emit(e *Event) {
	for i := 0; i < len(o.sinks); i++ {
		if err := o.sinks[i].Emit(e); err != nil {
			if o.err == nil {
				o.err = err
			}
			o.sinks = append(o.sinks[:i], o.sinks[i+1:]...)
			i--
		}
	}
}

// Err returns the first sink error, if any.
func (o *Observer) Err() error { return o.err }

// Close closes every sink and returns the first error (including any
// earlier Emit error).
func (o *Observer) Close() error {
	err := o.err
	for _, s := range o.sinks {
		if cerr := s.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	o.sinks = nil
	return err
}
