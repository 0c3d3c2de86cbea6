package resilience

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"stir/internal/obs"
	"stir/internal/obs/trace"
)

// Retry defaults, applied field-by-field when a Policy leaves them zero.
const (
	DefaultMaxAttempts = 4
	DefaultBaseDelay   = 25 * time.Millisecond
	DefaultMaxDelay    = 2 * time.Second
	DefaultMultiplier  = 2.0
	DefaultJitterFrac  = 0.2
)

// Policy is a reusable retry policy: exponential backoff with deterministic
// seeded jitter, transient/permanent classification, and optional
// per-attempt and overall deadlines. The zero value is usable and retries
// with the defaults above. A Policy is safe for concurrent use.
type Policy struct {
	// Name labels the policy's metric series (default "default").
	Name string
	// MaxAttempts bounds total tries, first included (default 4).
	MaxAttempts int
	// BaseDelay is the first backoff step (default 25ms).
	BaseDelay time.Duration
	// MaxDelay caps one backoff sleep, including Retry-After hints
	// (default 2s).
	MaxDelay time.Duration
	// Multiplier grows the delay per attempt (default 2).
	Multiplier float64
	// JitterFrac spreads each delay uniformly in ±frac around its nominal
	// value (default 0.2; negative disables). The jitter stream is seeded,
	// so a fixed Seed reproduces the exact sleep sequence.
	JitterFrac float64
	// Seed fixes the jitter stream (default 1).
	Seed int64
	// AttemptTimeout bounds one attempt (0 = none). An attempt that dies of
	// this deadline while the parent context is still alive is transient.
	AttemptTimeout time.Duration
	// Budget bounds the whole Do call, sleeps included (0 = none).
	Budget time.Duration
	// Classify overrides the package-level Classify (nil = default chain).
	Classify func(error) Class
	// Metrics receives the policy's series (nil means obs.Default;
	// obs.Discard disables).
	Metrics *obs.Registry
	// Sleep is swappable for tests (nil = timer honouring ctx).
	Sleep func(context.Context, time.Duration) error

	mu  sync.Mutex
	rng *rand.Rand
}

// RetryAfterer lets errors carry a server-advertised wait (a 429's
// Retry-After); Do sleeps max(backoff, hint), capped at MaxDelay.
type RetryAfterer interface{ RetryAfter() time.Duration }

// Do runs op until it succeeds, a permanent error surfaces, attempts run
// out, or the context/budget dies. The error returned is the last attempt's
// (wrapped with attempt accounting when retries were exhausted).
func (p *Policy) Do(ctx context.Context, op func(context.Context) error) error {
	attempts := p.MaxAttempts
	if attempts <= 0 {
		attempts = DefaultMaxAttempts
	}
	name := p.Name
	if name == "" {
		name = "default"
	}
	classify := p.Classify
	if classify == nil {
		classify = Classify
	}
	reg := obs.Or(p.Metrics)
	// The active span is the caller's logical-request span (e.g. the twitter
	// client's): N attempts annotate that one span rather than spawning N.
	// Every annotation below is guarded so the unsampled path builds nothing.
	sp := trace.FromContext(ctx)
	if p.Budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.Budget)
		defer cancel()
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return fmt.Errorf("resilience: %w (after %d attempts: %v)", err, attempt, lastErr)
			}
			return err
		}
		err := p.attempt(ctx, op)
		if err == nil {
			if sp != nil && attempt > 0 {
				sp.AnnotateInt("retry.attempts", int64(attempt+1))
			}
			return nil
		}
		lastErr = err
		cls := classify(err)
		// A per-attempt deadline with the parent still alive is the attempt
		// timing out, not the caller giving up.
		if errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil && p.AttemptTimeout > 0 {
			cls = ClassTransient
		}
		// Cooperative sheds (429, or Retry-After on any status) are the
		// server managing load, not the server failing; they are counted
		// apart so a dashboard can tell backpressure from faults.
		throttle := IsThrottle(err)
		if throttle {
			reg.Counter("resilience_throttled_total", "policy", name).Inc()
		}
		if sp != nil {
			outcome := cls.String()
			if throttle {
				outcome = "throttle"
			}
			sp.Annotate("retry.fail", strconv.Itoa(attempt+1)+" "+outcome)
		}
		if cls == ClassPermanent {
			reg.Counter("resilience_permanent_total", "policy", name).Inc()
			sp.Annotate("retry.outcome", "permanent")
			return err
		}
		if attempt == attempts-1 {
			break
		}
		d := p.delay(attempt)
		var ra RetryAfterer
		if errors.As(err, &ra) {
			if hint := ra.RetryAfter(); hint > d {
				d = min(hint, p.maxDelay())
			}
		}
		reg.Counter("resilience_retries_total", "policy", name).Inc()
		reg.Histogram("resilience_backoff_seconds", obs.DefBuckets, "policy", name).ObserveDuration(d)
		if sp != nil {
			sp.AnnotateDuration("retry.backoff", d)
		}
		if serr := p.sleep(ctx, d); serr != nil {
			return fmt.Errorf("resilience: %w (after %d attempts: %v)", serr, attempt+1, lastErr)
		}
	}
	reg.Counter("resilience_giveups_total", "policy", name).Inc()
	if sp != nil {
		sp.Annotate("retry.outcome", "exhausted")
		sp.AnnotateInt("retry.attempts", int64(attempts))
	}
	return fmt.Errorf("resilience: %d attempts exhausted: %w", attempts, lastErr)
}

// attempt runs op once under the per-attempt deadline.
func (p *Policy) attempt(ctx context.Context, op func(context.Context) error) error {
	if p.AttemptTimeout <= 0 {
		return op(ctx)
	}
	actx, cancel := context.WithTimeout(ctx, p.AttemptTimeout)
	defer cancel()
	return op(actx)
}

// delay computes the jittered exponential backoff for one attempt.
func (p *Policy) delay(attempt int) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = DefaultBaseDelay
	}
	mult := p.Multiplier
	if mult <= 1 {
		mult = DefaultMultiplier
	}
	maxD := p.maxDelay()
	d := float64(base) * math.Pow(mult, float64(attempt))
	if d > float64(maxD) {
		d = float64(maxD)
	}
	frac := p.JitterFrac
	if frac == 0 {
		frac = DefaultJitterFrac
	}
	if frac > 0 {
		p.mu.Lock()
		if p.rng == nil {
			seed := p.Seed
			if seed == 0 {
				seed = 1
			}
			p.rng = rand.New(rand.NewSource(seed))
		}
		u := p.rng.Float64()
		p.mu.Unlock()
		d *= 1 - frac + 2*frac*u
	}
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}

func (p *Policy) maxDelay() time.Duration {
	if p.MaxDelay <= 0 {
		return DefaultMaxDelay
	}
	return p.MaxDelay
}

func (p *Policy) sleep(ctx context.Context, d time.Duration) error {
	if p.Sleep != nil {
		return p.Sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
