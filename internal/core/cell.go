package core

import (
	"context"
	"errors"
	"sync"
)

// cell is a retryable single-flight memo: the building block of the
// pipeline's shared-artifact cells now that checks are cancellable.
//
// sync.Once (the PR 3 mechanism) is wrong under cancellation in two
// ways: a builder whose own context expires would memoize its context
// error forever, poisoning the cell for every later request, and a
// waiter whose context expires could not abandon the wait. cell fixes
// both: the first caller becomes the builder and runs build under its
// own context; a successful (or deterministically failed) result is
// memoized; a context-cancelled build is NOT memoized — the in-flight
// marker is cleared and the next caller rebuilds. Waiters block on the
// in-flight channel or their own context, whichever ends first.
//
// With a nil (or background) context every caller behaves exactly like
// sync.Once: one build, everyone shares the result.
type cell[T any] struct {
	mu       sync.Mutex
	done     bool
	val      T
	err      error
	inflight chan struct{} // non-nil while a builder runs
}

// isContextError reports whether err is (or wraps) a context
// cancellation or deadline error. The decision procedures use it to
// keep context errors strictly separate from verdict errors: only the
// latter are memoized by cells or turned into check failures.
func isContextError(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// get returns the memoized value, building it with build if necessary.
// build runs under the calling goroutine's ctx; concurrent callers
// coalesce onto one build. A context error — either the caller's own or
// the builder's — is returned unmemoized.
func (c *cell[T]) get(ctx context.Context, build func() (T, error)) (T, error) {
	for {
		c.mu.Lock()
		if c.done {
			v, err := c.val, c.err
			c.mu.Unlock()
			return v, err
		}
		if c.inflight == nil {
			ch := make(chan struct{})
			c.inflight = ch
			c.mu.Unlock()

			v, err := build()

			c.mu.Lock()
			c.inflight = nil
			if err == nil || !isContextError(err) {
				c.done, c.val, c.err = true, v, err
			}
			c.mu.Unlock()
			close(ch)
			return v, err
		}
		ch := c.inflight
		c.mu.Unlock()
		if ctx == nil {
			<-ch
			continue
		}
		select {
		case <-ch:
			// Either the builder memoized a result (next iteration
			// returns it) or it was cancelled (next iteration rebuilds
			// under our context).
		case <-ctx.Done():
			var zero T
			return zero, ctx.Err()
		}
	}
}
