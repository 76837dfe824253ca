package obs

import (
	"fmt"
	"time"
)

// Kind classifies a device event.
type Kind int

// Event kinds recorded by the device.
const (
	CMBWrite     Kind = iota // TLP payload accepted on the CMB interface
	CMBPersist               // chunk landed in PM backing; credit may advance
	DestagePage              // one page destaged to the conventional side
	Mirror                   // fast-side write mirrored to a peer
	ShadowUpdate             // shadow counter update received
	PowerLoss                // power interruption injected
	GCCollect                // FTL collected a block
	AdminCommand             // vendor-specific admin command executed
	QueueOverrun             // intake queue overrun: write dropped
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case CMBWrite:
		return "cmb-write"
	case CMBPersist:
		return "cmb-persist"
	case DestagePage:
		return "destage-page"
	case Mirror:
		return "mirror"
	case ShadowUpdate:
		return "shadow-update"
	case PowerLoss:
		return "power-loss"
	case GCCollect:
		return "gc-collect"
	case AdminCommand:
		return "admin-command"
	case QueueOverrun:
		return "queue-overrun"
	}
	return "unknown"
}

// Event is one recorded occurrence.
type Event struct {
	At        time.Duration // virtual time
	Kind      Kind
	Component string // which module recorded it
	A, B      int64  // kind-specific values (offset/length, counter, ...)
}

// String implements fmt.Stringer.
func (e Event) String() string {
	return fmt.Sprintf("%-12v %-14s %-16s a=%d b=%d", e.At, e.Kind, e.Component, e.A, e.B)
}

// Tracer is the device's event history: a bounded ring of typed events
// with virtual timestamps, plus a running fingerprint over every event
// ever recorded. Tracing is opt-in; a nil Tracer ignores all records and
// costs one branch. Create one with NewTracer.
type Tracer struct {
	events []Event
	next   int
	full   bool
	total  int64
	clock  func() time.Duration
	fp     uint64 // running FNV-1a over every event ever recorded
}

// NewTracer creates a tracer holding the last capacity events (1024 if
// capacity <= 0), stamping them with the given clock.
func NewTracer(capacity int, clock func() time.Duration) *Tracer {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Tracer{events: make([]Event, capacity), clock: clock, fp: FNVOffset}
}

// Record appends an event; safe on a nil receiver.
func (t *Tracer) Record(kind Kind, component string, a, b int64) {
	if t == nil {
		return
	}
	e := Event{At: t.clock(), Kind: kind, Component: component, A: a, B: b}
	t.events[t.next] = e
	t.fp = Mix64(t.fp, uint64(e.At))
	t.fp = Mix64(t.fp, uint64(e.Kind))
	t.fp = MixBytes(t.fp, e.Component)
	t.fp = Mix64(t.fp, uint64(e.A))
	t.fp = Mix64(t.fp, uint64(e.B))
	t.next++
	t.total++
	if t.next == len(t.events) {
		t.next = 0
		t.full = true
	}
}

// Total returns how many events were recorded over the tracer's lifetime
// (including ones that have rotated out of the ring).
func (t *Tracer) Total() int64 {
	if t == nil {
		return 0
	}
	return t.total
}

// Fingerprint returns a running FNV-1a hash over every event ever
// recorded — including ones rotated out of the ring — so two runs with
// identical event streams (times, kinds, components, values, in order)
// have identical fingerprints. Zero on a nil tracer.
func (t *Tracer) Fingerprint() uint64 {
	if t == nil {
		return 0
	}
	return t.fp
}

// Events returns the retained events in record order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	if !t.full {
		out := make([]Event, t.next)
		copy(out, t.events[:t.next])
		return out
	}
	out := make([]Event, 0, len(t.events))
	out = append(out, t.events[t.next:]...)
	out = append(out, t.events[:t.next]...)
	return out
}

// Filter returns the retained events of one kind, in order.
func (t *Tracer) Filter(kind Kind) []Event {
	var out []Event
	for _, e := range t.Events() {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// Count returns how many retained events have the given kind.
func (t *Tracer) Count(kind Kind) int { return len(t.Filter(kind)) }
