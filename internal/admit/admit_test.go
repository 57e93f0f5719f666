package admit

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a manually advanced time source.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestRateLimiterBurstThenRefill(t *testing.T) {
	clock := newFakeClock()
	l := NewRateLimiter()
	l.SetClock(clock.Now)
	lim := Limit{Rate: 2, Burst: 4}

	for i := 0; i < 4; i++ {
		d := l.Allow("tok", lim)
		if !d.OK {
			t.Fatalf("request %d denied inside burst", i)
		}
		if d.Limit != 4 {
			t.Fatalf("Limit = %d, want 4", d.Limit)
		}
		if want := 3 - i; d.Remaining != want {
			t.Fatalf("request %d Remaining = %d, want %d", i, d.Remaining, want)
		}
	}
	d := l.Allow("tok", lim)
	if d.OK {
		t.Fatal("request past burst allowed")
	}
	// Empty bucket at 2 tokens/sec: one whole token in 500ms.
	if want := 500 * time.Millisecond; d.RetryAfter != want {
		t.Fatalf("RetryAfter = %v, want %v", d.RetryAfter, want)
	}
	// Full refill of 4 tokens takes 2s.
	if want := 2 * time.Second; d.Reset != want {
		t.Fatalf("Reset = %v, want %v", d.Reset, want)
	}

	clock.Advance(500 * time.Millisecond)
	if d := l.Allow("tok", lim); !d.OK {
		t.Fatal("request after refill denied")
	}
	if d := l.Allow("tok", lim); d.OK {
		t.Fatal("second request after half-second refill allowed")
	}
}

func TestRateLimiterKeysAreIndependent(t *testing.T) {
	clock := newFakeClock()
	l := NewRateLimiter()
	l.SetClock(clock.Now)
	lim := Limit{Rate: 1, Burst: 1}
	if d := l.Allow("a", lim); !d.OK {
		t.Fatal("first a denied")
	}
	if d := l.Allow("a", lim); d.OK {
		t.Fatal("second a allowed")
	}
	if d := l.Allow("b", lim); !d.OK {
		t.Fatal("b should have its own bucket")
	}
}

func TestRateLimiterShrunkOverrideClamps(t *testing.T) {
	clock := newFakeClock()
	l := NewRateLimiter()
	l.SetClock(clock.Now)
	if d := l.Allow("tok", Limit{Rate: 1, Burst: 100}); !d.OK {
		t.Fatal("denied under wide limit")
	}
	// The narrow limit applies immediately: the ~99 banked tokens clamp to
	// the new burst of 1, so exactly one more request passes.
	if d := l.Allow("tok", Limit{Rate: 1, Burst: 1}); !d.OK {
		t.Fatal("clamped bucket should still hold one token")
	}
	if d := l.Allow("tok", Limit{Rate: 1, Burst: 1}); d.OK {
		t.Fatal("banked tokens survived a shrunk override")
	}
}

// TestRateLimiterConcurrentBurstExact asserts the shedding contract under
// contention: with a burst of B and negligible refill, exactly B of N
// concurrent requests pass, and every denial carries a positive RetryAfter.
func TestRateLimiterConcurrentBurstExact(t *testing.T) {
	l := NewRateLimiter() // real clock; rate so low refill is negligible
	lim := Limit{Rate: 0.001, Burst: 5}
	const n = 64
	var allowed, denied atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			d := l.Allow("shared", lim)
			if d.OK {
				allowed.Add(1)
			} else {
				denied.Add(1)
				if d.RetryAfter <= 0 {
					t.Error("denial without RetryAfter")
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	if allowed.Load() != 5 || denied.Load() != n-5 {
		t.Fatalf("allowed/denied = %d/%d, want 5/%d", allowed.Load(), denied.Load(), n-5)
	}
}

func TestRateLimiterZeroRateIsUnlimited(t *testing.T) {
	l := NewRateLimiter()
	for i := 0; i < 100; i++ {
		if d := l.Allow("tok", Limit{}); !d.OK {
			t.Fatal("zero limit denied a request")
		}
	}
	if n := l.Buckets(); n != 0 {
		t.Fatalf("unlimited traffic created %d buckets", n)
	}
}

func TestGateFastPathAndRelease(t *testing.T) {
	g := NewGate(2, 2, time.Second)
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if waited, err := g.Acquire(ctx); err != nil || waited != 0 {
			t.Fatalf("acquire %d: waited=%v err=%v", i, waited, err)
		}
	}
	if g.InFlight() != 2 {
		t.Fatalf("InFlight = %d, want 2", g.InFlight())
	}
	g.Release()
	if _, err := g.Acquire(ctx); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
}

// TestGateWaitersShedOnDeadline fills the gate, parks waiters up to the
// wait-queue cap (they shed with ErrWaitTimeout when no slot frees), and
// sheds everyone past the cap immediately with ErrSaturated.
func TestGateWaitersShedOnDeadline(t *testing.T) {
	g := NewGate(1, 2, 30*time.Millisecond)
	if _, err := g.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}

	const n = 10
	var timedOut, saturated atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch _, err := g.Acquire(context.Background()); err {
			case ErrWaitTimeout:
				timedOut.Add(1)
			case ErrSaturated:
				saturated.Add(1)
			case nil:
				t.Error("acquired a slot that was never released")
			default:
				t.Errorf("unexpected error %v", err)
			}
		}()
	}
	wg.Wait()
	if timedOut.Load() > 2 {
		t.Fatalf("%d waiters parked, wait queue cap is 2", timedOut.Load())
	}
	if timedOut.Load()+saturated.Load() != n {
		t.Fatalf("timedOut+saturated = %d, want %d", timedOut.Load()+saturated.Load(), n)
	}
	if saturated.Load() < n-2 {
		t.Fatalf("only %d shed immediately, want >= %d", saturated.Load(), n-2)
	}
	g.Release()
	if _, err := g.Acquire(context.Background()); err != nil {
		t.Fatalf("gate unusable after shedding: %v", err)
	}
}

func TestGateWaiterGetsFreedSlot(t *testing.T) {
	g := NewGate(1, 1, time.Second)
	if _, err := g.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		waited, err := g.Acquire(context.Background())
		if err == nil && waited <= 0 {
			t.Error("parked waiter reported zero wait")
		}
		got <- err
	}()
	// Wait for the goroutine to park, then free the slot.
	for g.waiting.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	g.Release()
	if err := <-got; err != nil {
		t.Fatalf("parked waiter should get the freed slot: %v", err)
	}
}

func TestGateAbandonedContext(t *testing.T) {
	g := NewGate(1, 1, time.Minute)
	if _, err := g.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan error, 1)
	go func() {
		_, err := g.Acquire(ctx)
		got <- err
	}()
	for g.waiting.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-got; err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestWatchdogDegradeAndRecover drives the full ladder with an injected
// sampler: up through every stage as pressure mounts, down again (with
// hysteresis) as it clears.
func TestWatchdogDegradeAndRecover(t *testing.T) {
	var heap atomic.Uint64
	type change struct{ from, to Level }
	var mu sync.Mutex
	var changes []change
	w := NewWatchdog(WatchdogConfig{
		Budget:   1000,
		Sample:   heap.Load,
		Interval: time.Hour, // transitions driven by Poke only
		OnChange: func(from, to Level) {
			mu.Lock()
			changes = append(changes, change{from, to})
			mu.Unlock()
		},
	})
	defer w.Close()

	steps := []struct {
		heap uint64
		want Level
	}{
		{500, LevelNormal},
		{810, LevelShedCache},
		{850, LevelShedCache},
		{910, LevelPauseRebuild},
		{990, LevelRejectIngest},
		{920, LevelRejectIngest}, // above 0.95-hysteresis: no flap
		{880, LevelPauseRebuild},
		{600, LevelNormal}, // clears every exit threshold: straight down
		{990, LevelRejectIngest},
		{100, LevelNormal},
	}
	for i, s := range steps {
		heap.Store(s.heap)
		if got := w.Poke(); got != s.want {
			t.Fatalf("step %d (heap=%d): level = %v, want %v", i, s.heap, got, s.want)
		}
		if got := w.Level(); got != s.want {
			t.Fatalf("step %d: Level() = %v, want %v", i, got, s.want)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for i, c := range changes {
		if c.from == c.to {
			t.Fatalf("change %d is a no-op transition %v -> %v", i, c.from, c.to)
		}
	}
	if len(changes) == 0 {
		t.Fatal("no OnChange callbacks fired")
	}
}

func TestWatchdogDisabled(t *testing.T) {
	if w := NewWatchdog(WatchdogConfig{Budget: 0}); w != nil {
		t.Fatal("zero budget should disable the watchdog")
	}
	var w *Watchdog
	if w.Level() != LevelNormal {
		t.Fatal("nil watchdog must report LevelNormal")
	}
	w.Close() // must not panic
	if w.Poke() != LevelNormal {
		t.Fatal("nil Poke must report LevelNormal")
	}
}

func TestWatchdogBackgroundLoop(t *testing.T) {
	var heap atomic.Uint64
	heap.Store(990)
	w := NewWatchdog(WatchdogConfig{
		Budget:   1000,
		Sample:   heap.Load,
		Interval: time.Millisecond,
	})
	defer w.Close()
	deadline := time.Now().Add(2 * time.Second)
	for w.Level() != LevelRejectIngest {
		if time.Now().After(deadline) {
			t.Fatal("background loop never reached reject-ingest")
		}
		time.Sleep(time.Millisecond)
	}
	heap.Store(10)
	for w.Level() != LevelNormal {
		if time.Now().After(deadline) {
			t.Fatal("background loop never recovered")
		}
		time.Sleep(time.Millisecond)
	}
}
