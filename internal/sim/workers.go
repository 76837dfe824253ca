package sim

import "xssd/internal/pool"

// Workers hands items to recycled processes: a device's background unit of
// work — a write-back, a destage page — runs on a long-lived process
// instead of a process and a closure of its own. Start wakes an idle
// worker, or starts a new one when none is idle; either way it schedules
// exactly the one event, at (now, next seq), that Go schedules, so
// replacing a Go with a Start moves no virtual number. A worker runs only
// the item Start handed it, then parks itself on a LIFO idle list.
// Nothing caps the worker count: whatever bounds the caller's work in
// flight bounds the workers. DESIGN.md §9.
type Workers[T any] struct {
	env  *Env
	name string
	fn   func(p *Proc, item T)
	//xssd:pool put
	idle pool.Free[*worker[T]]
}

// worker is one recycled process and the item it was handed.
type worker[T any] struct {
	p    Proc
	ws   *Workers[T]
	item T
}

// NewWorkers returns an empty set of workers on e, each running fn on the
// items handed to it, under the process name name.
func NewWorkers[T any](e *Env, name string, fn func(p *Proc, item T)) *Workers[T] {
	return &Workers[T]{env: e, name: name, fn: fn}
}

// Start runs fn(item) on a worker from the current instant.
//
//xssd:hotpath
func (ws *Workers[T]) Start(item T) {
	w := ws.idle.Get()
	if w == nil {
		ws.spawn(item)
		return
	}
	w.item = item
	ws.env.schedule(ws.env.now, &w.p, nil)
}

// spawn starts a new worker on item: the one path that allocates, taken
// only when every worker is busy.
func (ws *Workers[T]) spawn(item T) {
	w := &worker[T]{ws: ws, item: item}
	ws.env.start(&w.p, ws.name, w.loop)
}

// loop is a worker's body: run the item, park on the idle list, and wait
// for Start to hand over the next one. The parked process holds no event
// and does not count as blocked, like a finished one.
//
//xssd:hotpath
func (w *worker[T]) loop(p *Proc) {
	for {
		item := w.item
		var zero T
		w.item = zero
		w.ws.fn(p, item)
		w.ws.idle.Put(w)
		p.Park()
	}
}
