package obs

import (
	"fmt"
	"io"
	"log/slog"
)

// JSONSource is anything that can serve itself as one JSON document —
// the shape of the forensics explorer, kept as an interface so obs does
// not import the packages it observes.
type JSONSource interface {
	WriteJSON(w io.Writer) error
}

// Observer bundles the telemetry components a study threads through the
// stack. Any field may be nil to disable that component; a nil *Observer
// disables everything. Like every obs handle, an Observer and its
// components are nil-safe (see the package doc): instrumented code calls
// them without a guard clause, and a nil test outside this package decides
// only whether to do work, never whether a handle exists.
type Observer struct {
	Metrics  *Registry
	Progress *Progress
	Trace    *Tracer

	// Forensics, when set, is served at /forensics.json (typically a
	// *forensics.Explorer).
	Forensics JSONSource

	// log carries Logf's lines; nil is silent.
	log *slog.Logger
}

// New returns an Observer with all three components enabled, logging
// through log (nil for silent).
func New(log *slog.Logger) *Observer {
	return &Observer{
		Metrics:  NewRegistry(),
		Progress: NewProgress(),
		Trace:    NewTracer(),
		log:      log,
	}
}

// Registry returns the metrics registry; nil (which hands out nil,
// no-op instruments) when o or its Metrics is nil.
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.Metrics
}

// Span opens a trace span and returns its ref; nil-safe (returns a no-op
// ref when tracing is disabled).
func (o *Observer) Span(name, cat string, attrs map[string]string) *SpanRef {
	if o == nil || o.Trace == nil {
		return nil
	}
	return o.Trace.StartSpan(name, cat, attrs)
}

// Logf writes one line through the logger, if there is one; nil-safe.
func (o *Observer) Logf(format string, a ...any) {
	if o != nil && o.log != nil {
		o.log.Info(fmt.Sprintf(format, a...))
	}
}

// Enabled reports whether any component is active.
func (o *Observer) Enabled() bool {
	return o != nil && (o.Metrics != nil || o.Progress != nil || o.Trace != nil)
}
