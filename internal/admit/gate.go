package admit

import (
	"context"
	"errors"
	"sync/atomic"
	"time"
)

// Gate caps how many requests of one class run at once. Requests past the
// cap park in a bounded wait queue: a waiter that gets a slot within
// MaxWait proceeds, one that doesn't is shed — and once the queue itself is
// full, arrivals are shed immediately. Either way the goroutine count stays
// bounded at capacity + waitCap per class, which is the entire point: under
// overload the server answers "come back later" in microseconds instead of
// accumulating parked handlers until the scheduler (or the heap) gives out.
type Gate struct {
	slots   chan struct{}
	maxWait time.Duration
	waitCap int64
	waiting atomic.Int64
}

// ErrSaturated is returned when the wait queue is already full: the request
// is shed without parking at all.
var ErrSaturated = errors.New("admit: saturated (wait queue full)")

// ErrWaitTimeout is returned when a parked request's wait deadline passed
// before a slot freed up.
var ErrWaitTimeout = errors.New("admit: timed out waiting for a slot")

// NewGate builds a gate admitting capacity concurrent holders with up to
// waitCap parked waiters, each willing to wait at most maxWait.
func NewGate(capacity, waitCap int, maxWait time.Duration) *Gate {
	if capacity < 1 {
		capacity = 1
	}
	if waitCap < 0 {
		waitCap = 0
	}
	return &Gate{
		slots:   make(chan struct{}, capacity),
		maxWait: maxWait,
		waitCap: int64(waitCap),
	}
}

// Acquire takes a slot, reporting how long it waited. The fast path (a free
// slot) is one non-blocking channel send — no allocation, no clock read.
// The slow path parks up to maxWait, or until ctx is done (a client that
// hung up should not keep a place in line).
func (g *Gate) Acquire(ctx context.Context) (waited time.Duration, err error) {
	select {
	case g.slots <- struct{}{}:
		return 0, nil
	default:
	}
	if g.waiting.Add(1) > g.waitCap {
		g.waiting.Add(-1)
		return 0, ErrSaturated
	}
	defer g.waiting.Add(-1)
	start := time.Now()
	t := time.NewTimer(g.maxWait)
	defer t.Stop()
	select {
	case g.slots <- struct{}{}:
		return time.Since(start), nil
	case <-t.C:
		return time.Since(start), ErrWaitTimeout
	case <-ctx.Done():
		return time.Since(start), ctx.Err()
	}
}

// Release returns a slot taken by Acquire.
func (g *Gate) Release() { <-g.slots }

// InFlight is the number of currently held slots.
func (g *Gate) InFlight() int { return len(g.slots) }
