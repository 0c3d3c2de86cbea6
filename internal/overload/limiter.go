// Package overload is STIR's server-side overload-protection layer. The
// clients retry through internal/resilience, which makes an unprotected
// server *worse* under stress: every timeout comes back as a
// retry, and the collapse amplifies. This package gives every STIR daemon
// the standard serving-system defences:
//
//   - an adaptive concurrency Limiter (AIMD on observed latency against a
//     target, or a fixed cap for deterministic runs) fronting a bounded FIFO
//     wait queue, shedding with 503 + Retry-After once the queue or the
//     caller's deadline would be exceeded;
//   - deadline propagation: clients stamp X-Stir-Deadline-Ms from their
//     context, servers reject doomed requests at admission instead of
//     executing work nobody will read;
//   - priority classes, so /healthz, /readyz and /metrics are never shed
//     while bulk query traffic is;
//   - a graceful Server lifecycle shared by all four daemons: hardened
//     http.Server timeouts, SIGTERM → /readyz flips unhealthy → in-flight
//     drain under a deadline → final-checkpoint hook → clean exit.
//
// Shed/queue/limit activity is published on the internal/obs registry
// (stir_overload_shed_total{reason}, stir_overload_queue_depth,
// stir_overload_limit, stir_overload_inflight), and the shed responses carry
// Retry-After so the resilience layer backs clients off cooperatively
// instead of counting the shed as a fault.
package overload

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"stir/internal/obs"
)

// Limiter defaults, applied field-by-field when options are zero.
const (
	DefaultMaxInflight  = 64
	DefaultQueueDepth   = 128
	DefaultMaxQueueWait = time.Second
	DefaultWindow       = time.Second
	DefaultBackoff      = 0.75
)

// LimiterOptions configures a Limiter.
type LimiterOptions struct {
	// Service labels the limiter's metric series.
	Service string
	// MaxInflight is the concurrency ceiling — the fixed cap when
	// TargetLatency is zero, the AIMD upper bound otherwise (default 64).
	MaxInflight int
	// MinInflight is the AIMD floor (default 1).
	MinInflight int
	// QueueDepth bounds the FIFO wait queue; an arrival that finds the queue
	// full is shed immediately (default 128; negative disables queueing).
	QueueDepth int
	// TargetLatency turns on AIMD adaptation: each Window, the limit shrinks
	// multiplicatively when the mean observed service latency exceeded the
	// target and grows by one otherwise. Zero keeps the cap fixed — the
	// deterministic mode chaos tests and benchmarks pin.
	TargetLatency time.Duration
	// MaxQueueWait bounds how long one request may sit queued before it is
	// shed (default TargetLatency when adapting, else 1s).
	MaxQueueWait time.Duration
	// Window is the AIMD adaptation period (default 1s).
	Window time.Duration
	// Backoff is the multiplicative-decrease factor in (0,1) (default 0.75).
	Backoff float64
	// Metrics receives the limiter's series (nil means obs.Default;
	// obs.Discard disables).
	Metrics *obs.Registry
	// Now is the adaptation clock, swappable for tests (nil = time.Now).
	Now func() time.Time
}

// Shed reasons, used as the reason label on stir_overload_shed_total and
// carried by ShedError.
const (
	ShedQueueFull    = "queue_full"
	ShedQueueTimeout = "queue_timeout"
	ShedDeadline     = "deadline"
	ShedDraining     = "draining"
)

// ShedError reports an admission rejection and why.
type ShedError struct{ Reason string }

// Error implements error.
func (e *ShedError) Error() string { return "overload: shed (" + e.Reason + ")" }

// waiter states.
const (
	wWaiting = iota
	wAdmitted
	wShed
)

// waiter is one queued Acquire call.
type waiter struct {
	admitted chan struct{}
	state    int
}

// Limiter is an admission controller: at most `limit` requests execute
// concurrently, up to QueueDepth more wait FIFO, and everything beyond that
// is shed. With TargetLatency set the limit adapts (AIMD) to the observed
// service latency, so a slow backend sheds harder instead of queueing
// itself to death. Safe for concurrent use.
type Limiter struct {
	opts LimiterOptions
	reg  *obs.Registry

	mu       sync.Mutex
	limit    float64
	inflight int
	queue    []*waiter
	queued   int // live (non-shed) entries in queue

	windowStart time.Time
	windowSum   time.Duration
	windowN     int
}

// NewLimiter builds a limiter and registers its gauges
// (stir_overload_limit / _inflight / _queue_depth, labelled by service).
func NewLimiter(opts LimiterOptions) *Limiter {
	if opts.MaxInflight <= 0 {
		opts.MaxInflight = DefaultMaxInflight
	}
	if opts.MinInflight <= 0 {
		opts.MinInflight = 1
	}
	if opts.MinInflight > opts.MaxInflight {
		opts.MinInflight = opts.MaxInflight
	}
	if opts.QueueDepth == 0 {
		opts.QueueDepth = DefaultQueueDepth
	}
	if opts.MaxQueueWait <= 0 {
		if opts.TargetLatency > 0 {
			opts.MaxQueueWait = opts.TargetLatency
		} else {
			opts.MaxQueueWait = DefaultMaxQueueWait
		}
	}
	if opts.Window <= 0 {
		opts.Window = DefaultWindow
	}
	if opts.Backoff <= 0 || opts.Backoff >= 1 {
		opts.Backoff = DefaultBackoff
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	l := &Limiter{
		opts:        opts,
		reg:         obs.Or(opts.Metrics),
		limit:       float64(opts.MaxInflight),
		windowStart: opts.Now(),
	}
	l.reg.GaugeFunc("stir_overload_limit", func() float64 { return l.Limit() }, "service", opts.Service)
	l.reg.GaugeFunc("stir_overload_inflight", func() float64 { return float64(l.Inflight()) }, "service", opts.Service)
	l.reg.GaugeFunc("stir_overload_queue_depth", func() float64 { return float64(l.QueueLen()) }, "service", opts.Service)
	return l
}

// Limit returns the current concurrency limit (fixed or adapted).
func (l *Limiter) Limit() float64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.limit
}

// Inflight returns how many admissions are currently outstanding.
func (l *Limiter) Inflight() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inflight
}

// QueueLen returns how many requests are waiting for admission.
func (l *Limiter) QueueLen() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.queued
}

// Admission is one granted concurrency slot. Release it exactly once.
type Admission struct {
	l     *Limiter
	start time.Time
	once  sync.Once
}

// Release frees the slot, feeding the observed service latency into the
// AIMD window. Safe on nil (a nil Limiter admits everything).
func (a *Admission) Release() {
	if a == nil || a.l == nil {
		return
	}
	a.once.Do(func() { a.l.release(a.l.opts.Now().Sub(a.start)) })
}

// Acquire admits the caller, queues it (FIFO, bounded by QueueDepth and
// MaxQueueWait and ctx), or sheds it with a *ShedError. A ctx that dies
// while queued surfaces as ShedDeadline when the deadline expired and as
// ctx.Err() when the caller cancelled. Acquire on a nil Limiter admits
// unconditionally.
func (l *Limiter) Acquire(ctx context.Context) (*Admission, error) {
	if l == nil {
		return nil, nil
	}
	l.mu.Lock()
	if float64(l.inflight) < l.effLimit() && l.queued == 0 {
		l.inflight++
		l.mu.Unlock()
		return &Admission{l: l, start: l.opts.Now()}, nil
	}
	if l.opts.QueueDepth < 0 || l.queued >= l.opts.QueueDepth {
		l.mu.Unlock()
		return nil, &ShedError{Reason: ShedQueueFull}
	}
	w := &waiter{admitted: make(chan struct{})}
	l.queue = append(l.queue, w)
	l.queued++
	l.mu.Unlock()

	timer := time.NewTimer(l.opts.MaxQueueWait)
	defer timer.Stop()
	select {
	case <-w.admitted:
		return &Admission{l: l, start: l.opts.Now()}, nil
	case <-timer.C:
		if l.cancelWaiter(w) {
			return nil, &ShedError{Reason: ShedQueueTimeout}
		}
		return &Admission{l: l, start: l.opts.Now()}, nil
	case <-ctx.Done():
		if l.cancelWaiter(w) {
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				return nil, &ShedError{Reason: ShedDeadline}
			}
			return nil, ctx.Err()
		}
		return &Admission{l: l, start: l.opts.Now()}, nil
	}
}

// cancelWaiter marks w shed unless admission already won the race; it
// reports whether the caller lost its slot (true = really shed).
func (l *Limiter) cancelWaiter(w *waiter) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if w.state == wAdmitted {
		return false
	}
	w.state = wShed
	l.queued--
	return true
}

// effLimit is the integer admission threshold for the current limit.
func (l *Limiter) effLimit() float64 {
	if l.limit < float64(l.opts.MinInflight) {
		return float64(l.opts.MinInflight)
	}
	return l.limit
}

// release returns one slot, rolls the AIMD window, and hands freed capacity
// to the queue head.
func (l *Limiter) release(elapsed time.Duration) {
	l.mu.Lock()
	l.inflight--
	if l.opts.TargetLatency > 0 {
		l.windowSum += elapsed
		l.windowN++
		now := l.opts.Now()
		if now.Sub(l.windowStart) >= l.opts.Window {
			avg := l.windowSum / time.Duration(l.windowN)
			if avg > l.opts.TargetLatency {
				l.limit *= l.opts.Backoff
				if l.limit < float64(l.opts.MinInflight) {
					l.limit = float64(l.opts.MinInflight)
				}
			} else if l.limit < float64(l.opts.MaxInflight) {
				l.limit++
				if l.limit > float64(l.opts.MaxInflight) {
					l.limit = float64(l.opts.MaxInflight)
				}
			}
			l.windowStart = now
			l.windowSum, l.windowN = 0, 0
		}
	}
	l.admitLocked()
	l.mu.Unlock()
}

// admitLocked promotes queued waiters while capacity allows, preserving FIFO
// order and skipping entries that timed out or cancelled.
func (l *Limiter) admitLocked() {
	for len(l.queue) > 0 && float64(l.inflight) < l.effLimit() {
		w := l.queue[0]
		l.queue = l.queue[1:]
		if w.state != wWaiting {
			continue
		}
		w.state = wAdmitted
		l.queued--
		l.inflight++
		close(w.admitted)
	}
	if len(l.queue) == 0 && cap(l.queue) > 64 {
		l.queue = nil
	}
}

// String renders the limiter state for logs.
func (l *Limiter) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return fmt.Sprintf("limit %.1f inflight %d queued %d", l.limit, l.inflight, l.queued)
}
