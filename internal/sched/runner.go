package sched

import (
	"context"
	"sync"
)

// batch is one ForEach invocation's shared state: the type-erased range
// executor, completion tracking and first-error cancellation. It lives
// inside its Runner and is reused across calls, so a steady-state batch
// submission allocates nothing.
type batch struct {
	p     *Pool
	class Class
	ctx   context.Context
	run   func(slot, lo, hi int) // set once per Runner; executes [lo,hi)
	wg    sync.WaitGroup         // one count per chunk

	mu       sync.Mutex
	canceled bool
	errIdx   int
	err      error
}

// reset prepares the batch for a new run.
func (b *batch) reset(ctx context.Context) {
	b.mu.Lock()
	b.ctx = ctx
	b.canceled = false
	b.err = nil
	b.errIdx = 0
	b.mu.Unlock()
}

// stopped reports whether the batch should skip remaining work: a task
// errored or the batch context ended.
func (b *batch) stopped() bool {
	b.mu.Lock()
	canceled := b.canceled
	b.mu.Unlock()
	return canceled || b.ctx.Err() != nil
}

// fail records a task error, keeping the lowest-index one (the error a
// sequential loop would have surfaced among those observed), and cancels
// the batch's remaining chunks.
func (b *batch) fail(i int, err error) {
	b.mu.Lock()
	if b.err == nil || i < b.errIdx {
		b.err, b.errIdx = err, i
	}
	b.canceled = true
	b.mu.Unlock()
}

// firstErr returns the recorded error, if any.
func (b *batch) firstErr() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}

// runChunk executes one index range (or fast-skips it after
// cancellation) and releases its completion count.
func (b *batch) runChunk(slot, lo, hi int) {
	defer b.wg.Done()
	if b.stopped() {
		return
	}
	b.run(slot, lo, hi)
}

// Runner binds a worker-state factory to a pool: per-executor state is
// built at most once per slot and reused by every chunk that slot
// executes, so model structs and scratch arenas cost one allocation per
// worker rather than one per task. A Runner executes one batch at a
// time — concurrent ForEach calls on the same Runner are a bug (create
// one Runner per concurrent caller); the Runner itself may be reused
// across sequential batches indefinitely, and steady-state reuse
// allocates nothing.
//
// A nil pool is valid and runs every batch inline on the calling
// goroutine with a single state — the sequential fallback wiring uses
// when no shared pool exists.
type Runner[S any] struct {
	p       *Pool
	factory func() S
	states  []S
	inited  []bool
	chunk   int
	fn      func(st S, i int) error
	b       batch
}

// NewRunner builds a Runner for the pool (nil runs inline) under the
// given class. factory builds one worker state per executor slot; nil
// leaves states at the zero value of S.
func NewRunner[S any](p *Pool, class Class, factory func() S) *Runner[S] {
	slots := 1
	if p != nil {
		// One slot per worker plus one for the helping submitter.
		slots = p.workers + 1
	}
	r := &Runner[S]{
		p:       p,
		factory: factory,
		states:  make([]S, slots),
		inited:  make([]bool, slots),
	}
	r.b.p = p
	r.b.class = class
	r.b.run = r.runRange
	return r
}

// SetChunk fixes the number of indices dispatched per chunk; 0 (the
// default) picks a size that balances the pool while amortising queue
// traffic. Results never depend on the chunking.
func (r *Runner[S]) SetChunk(n int) { r.chunk = n }

// state returns slot's worker state, building it on first use. Distinct
// slots are touched by distinct goroutines only.
func (r *Runner[S]) state(slot int) S {
	if !r.inited[slot] {
		if r.factory != nil {
			r.states[slot] = r.factory()
		}
		r.inited[slot] = true
	}
	return r.states[slot]
}

// runRange executes indices [lo,hi) with slot's state. A task error
// cancels the batch; the batch context is polled per index so
// cancellation does not wait for a chunk boundary.
func (r *Runner[S]) runRange(slot, lo, hi int) {
	st := r.state(slot)
	fn := r.fn
	for i := lo; i < hi; i++ {
		if r.b.ctx.Err() != nil {
			return
		}
		if err := fn(st, i); err != nil {
			r.b.fail(i, err)
			return
		}
	}
}

// ForEach runs fn for every index in [0,n), fanning chunks out across
// the pool. It returns after every dispatched chunk has finished:
// either nil, the lowest-index task error observed (the first error
// cancels all remaining chunks), or the context's error. Successful
// side effects written by index are bit-identical to a sequential loop
// regardless of worker count, chunking or scheduling.
//
// The calling goroutine helps execute its own batch while it waits, so
// ForEach may be called from inside a pool task (nested fan-out)
// without risk of deadlock. After Close, ForEach degrades to an inline
// sequential loop.
func (r *Runner[S]) ForEach(ctx context.Context, n int, fn func(st S, i int) error) error {
	if n <= 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	r.fn = fn
	if r.p == nil {
		return r.forEachInline(ctx, n)
	}
	size := r.chunk
	if size <= 0 {
		// About eight chunks per worker: small enough that a worker
		// finishing early picks up more of an uneven batch, few enough
		// queue operations to stay cheap.
		size = n / (r.p.workers * 8)
		if size < 1 {
			size = 1
		}
	}
	chunks := (n + size - 1) / size
	b := &r.b
	b.reset(ctx)
	b.wg.Add(chunks)
	if !r.p.pushBatch(b, n, size, b.class) {
		// Pool closed under us: nothing was enqueued.
		b.wg.Add(-chunks)
		return r.forEachInline(ctx, n)
	}
	// Help with our own chunks instead of idling; whatever the workers
	// have already claimed finishes concurrently.
	for {
		c, ok := r.p.takeFor(b)
		if !ok {
			break
		}
		r.p.execute(c, r.p.workers)
	}
	b.wg.Wait()
	if err := b.firstErr(); err != nil {
		return err
	}
	return ctx.Err()
}

// forEachInline is the no-pool sequential path, context-checked per
// index like the parallel one.
func (r *Runner[S]) forEachInline(ctx context.Context, n int) error {
	st := r.state(0)
	fn := r.fn
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := fn(st, i); err != nil {
			return err
		}
	}
	return nil
}

// ForEach runs fn over [0,n) on p under class with no per-worker state.
// A nil pool runs inline. For repeated batches on a hot path, hold a
// Runner instead — this convenience allocates one per call.
func ForEach(ctx context.Context, p *Pool, class Class, n int, fn func(i int) error) error {
	r := NewRunner[struct{}](p, class, nil)
	return r.ForEach(ctx, n, func(_ struct{}, i int) error { return fn(i) })
}

// Map runs fn over [0,n) on p under class and collects the results in
// index order, so the output is identical to a sequential loop for any
// worker count. A nil pool runs inline.
func Map[T any](ctx context.Context, p *Pool, class Class, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(ctx, p, class, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
