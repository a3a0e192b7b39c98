// Package runner is the batch trial-execution engine: it fans a fixed
// number of independent, index-addressed work items out across a bounded
// worker pool and collects their results in index order.
//
// Every trial-driving layer of the repository — repro.Experiment, the
// cmd/sweep experiment sections, cmd/ringsim repetitions, cmd/table1 and
// the benchmarks — routes its per-trial loops through this package. Trials are
// pure functions of their index (seeds are derived deterministically from
// the index by the caller, or via DeriveSeed), so the result slice is
// bit-for-bit identical whatever the worker count: parallelism changes only
// wall-clock time, never the numbers in a report.
//
// Memory stays bounded: the pool holds one pre-allocated result slot per
// item and hands indices to workers through an atomic counter, so there is
// no job queue to grow. Cancellation is context-based, and a panic in one
// trial is captured and returned as a *PanicError instead of deadlocking the
// pool or killing the process.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Options configures a batch execution.
type Options struct {
	// Workers is the worker-pool size. Values <= 0 select
	// runtime.GOMAXPROCS(0), i.e. one worker per available core.
	Workers int
	// Progress, when non-nil, is called after every completed item with the
	// number done so far and the total. Calls are serialized (never
	// concurrent) but may come from any worker goroutine.
	Progress func(done, total int)
}

func (o Options) workers(total int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > total {
		w = total
	}
	if w < 1 {
		w = 1
	}
	return w
}

// PanicError wraps a panic recovered from a trial function.
type PanicError struct {
	// Index is the item whose function panicked.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: trial %d panicked: %v", e.Index, e.Value)
}

// Map executes fn(i) for every i in [0, total) across a worker pool and
// returns the results indexed by i. It is the deterministic parallel
// equivalent of
//
//	out := make([]T, total)
//	for i := range out { out[i] = fn(i) }
//
// fn must be safe for concurrent invocation on distinct indices and should
// depend only on i (derive any randomness from a per-index seed).
//
// If ctx is cancelled, no new items are started and Map returns ctx.Err()
// along with the partial results: slots whose fn never ran (or was running
// when another item failed) hold the zero value of T. If an fn panics, the
// panic is recovered, remaining items are abandoned, and Map returns a
// *PanicError describing the first panic observed.
func Map[T any](ctx context.Context, total int, fn func(i int) T, opts Options) ([]T, error) {
	out := make([]T, total)
	if total == 0 {
		return out, ctx.Err()
	}

	var (
		next     atomic.Int64 // next index to hand out
		done     atomic.Int64 // completed items
		mu       sync.Mutex   // serializes Progress and first-error capture
		firstErr error
		failed   atomic.Bool // fast-path flag: some trial panicked
		wg       sync.WaitGroup
	)

	run := func(i int) {
		defer func() {
			if v := recover(); v != nil {
				// Stop the other workers before the slow stack capture,
				// so they do not drain the remaining items meanwhile.
				failed.Store(true)
				stack := make([]byte, 64<<10)
				stack = stack[:runtime.Stack(stack, false)]
				mu.Lock()
				if firstErr == nil {
					firstErr = &PanicError{Index: i, Value: v, Stack: stack}
				}
				mu.Unlock()
			}
		}()
		out[i] = fn(i)
		if opts.Progress != nil {
			// The count is taken inside the lock so successive callbacks
			// observe strictly increasing done values.
			mu.Lock()
			opts.Progress(int(done.Add(1)), total)
			mu.Unlock()
		}
	}

	workers := opts.workers(total)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if failed.Load() || ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= total {
					return
				}
				run(i)
			}
		}()
	}
	wg.Wait()

	if firstErr != nil {
		return out, firstErr
	}
	return out, ctx.Err()
}

// ForEach is Map for side-effecting items with no result value.
func ForEach(ctx context.Context, total int, fn func(i int), opts Options) error {
	_, err := Map(ctx, total, func(i int) struct{} {
		fn(i)
		return struct{}{}
	}, opts)
	return err
}

// DeriveSeed deterministically derives an RNG seed for item i of a batch
// from a base seed, using the SplitMix64 finalizer so that neighboring
// indices yield statistically independent streams. Callers that parallelize
// a loop previously sharing one sequential RNG switch to per-item seeds via
// this function, making each item a pure function of its index.
func DeriveSeed(base uint64, i int) uint64 {
	z := base + 0x9e3779b97f4a7c15*uint64(i+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
