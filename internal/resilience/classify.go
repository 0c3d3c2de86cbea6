// Package resilience is STIR's dependency-free fault-handling layer: one
// configurable retry policy (exponential backoff with deterministic seeded
// jitter, transient/permanent error classification, per-attempt and overall
// deadlines, server-advertised waits) and the one reader of a server's shed
// (ResponseError).
//
// The paper's dataset came out of long crawls against flaky external
// services (the Twitter APIs, the Yahoo geocoder); this package is what lets
// the collection and refinement stack ride out the faults those services
// throw instead of aborting hours of work on the first connection reset.
// Policies publish their activity to the internal/obs registry
// (resilience_retries_total, resilience_throttled_total, ...), and
// internal/resilience/fault provides the matching deterministic
// fault-injection harness so every failure path has a reproducible test.
package resilience

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"strconv"
	"syscall"
	"time"
)

// Class is the retry-worthiness of an error.
type Class int

const (
	// ClassTransient errors are expected to clear on retry: timeouts,
	// connection resets, 5xx and 429 responses.
	ClassTransient Class = iota
	// ClassPermanent errors will not get better by retrying: 4xx responses,
	// cancelled contexts, malformed requests.
	ClassPermanent
)

// String renders the class for logs and metric labels.
func (c Class) String() string {
	if c == ClassTransient {
		return "transient"
	}
	return "permanent"
}

// Predicate inspects an error and either classifies it definitely
// (ok=true) or passes it along the chain (ok=false).
type Predicate func(err error) (Class, bool)

// DefaultChain is the predicate chain Classify walks, in order. Explicit
// marks win, then context state, then protocol status, then network shape.
var DefaultChain = []Predicate{
	IsMarked,
	IsContextDone,
	IsHTTPStatus,
	IsNetworkTransient,
}

// Classify walks DefaultChain and returns the first definite class.
// Unrecognised errors default to permanent: retrying blind hides bugs.
func Classify(err error) Class {
	if err == nil {
		return ClassPermanent
	}
	for _, p := range DefaultChain {
		if c, ok := p(err); ok {
			return c
		}
	}
	return ClassPermanent
}

// IsTransient reports whether err is worth retrying.
func IsTransient(err error) bool { return err != nil && Classify(err) == ClassTransient }

// marked is the wrapper MarkTransient/MarkPermanent attach.
type marked struct {
	err error
	cls Class
}

func (m *marked) Error() string { return m.err.Error() }
func (m *marked) Unwrap() error { return m.err }

// MarkTransient wraps err so Classify reports it transient regardless of
// its shape. nil stays nil.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &marked{err: err, cls: ClassTransient}
}

// MarkPermanent wraps err so Classify reports it permanent, overriding any
// transient shape underneath — the escape hatch for "a timeout here means
// the input is bad, stop retrying".
func MarkPermanent(err error) error {
	if err == nil {
		return nil
	}
	return &marked{err: err, cls: ClassPermanent}
}

// Transienter lets error types carry their own classification (the fault
// injector's errors do).
type Transienter interface{ Transient() bool }

// IsMarked classifies errors wrapped by MarkTransient/MarkPermanent and
// errors implementing Transienter.
func IsMarked(err error) (Class, bool) {
	var m *marked
	if errors.As(err, &m) {
		return m.cls, true
	}
	var t Transienter
	if errors.As(err, &t) {
		if t.Transient() {
			return ClassTransient, true
		}
		return ClassPermanent, true
	}
	return 0, false
}

// IsContextDone classifies cancelled or deadline-expired contexts as
// permanent: the caller gave up, retrying fights the caller. (Policy.Do
// itself distinguishes a per-attempt deadline from the parent's.)
func IsContextDone(err error) (Class, bool) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return ClassPermanent, true
	}
	return 0, false
}

// HTTPStatuser lets protocol error types expose their status code without
// this package importing them (twitter.APIError implements it).
type HTTPStatuser interface{ HTTPStatus() int }

// StatusError is a bare HTTP status failure, as ResponseError reads it off a
// non-2xx response. Wait carries the server-advertised wait when the
// response had one, which marks the error as a cooperative shed (see
// IsThrottle).
type StatusError struct {
	Status int
	Wait   time.Duration
}

// Error implements error.
func (e *StatusError) Error() string {
	return "resilience: http status " + http.StatusText(e.Status)
}

// HTTPStatus implements HTTPStatuser.
func (e *StatusError) HTTPStatus() int { return e.Status }

// RetryAfter implements RetryAfterer (zero when the server gave no hint).
func (e *StatusError) RetryAfter() time.Duration { return e.Wait }

// ResponseError reads a non-2xx response as a StatusError. Wait is the
// Retry-After seconds when that value is positive, otherwise the time until
// X-RateLimit-Reset (a Unix time), otherwise zero, which leaves the policy's
// own backoff in charge. Wait is not capped here: Policy.Do clamps hints at
// MaxDelay.
func ResponseError(resp *http.Response) *StatusError {
	se := &StatusError{Status: resp.StatusCode}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
		se.Wait = time.Duration(secs) * time.Second
	} else if unix, err := strconv.ParseInt(resp.Header.Get("X-RateLimit-Reset"), 10, 64); err == nil {
		se.Wait = max(time.Until(time.Unix(unix, 0)), 0)
	}
	return se
}

// IsThrottle reports whether err is a cooperative shed: the server is alive
// and explicitly asking the caller to back off, either with a 429 or with a
// Retry-After hint on any status (overload sheds answer 503 + Retry-After).
// Throttles are retried like any transient error and counted apart from
// faults (resilience_throttled_total): the whole point of server-side
// admission control is that clients ride a shed out.
func IsThrottle(err error) bool {
	if err == nil {
		return false
	}
	var ra RetryAfterer
	if errors.As(err, &ra) && ra.RetryAfter() > 0 {
		return true
	}
	var h HTTPStatuser
	return errors.As(err, &h) && h.HTTPStatus() == http.StatusTooManyRequests
}

// IsHTTPStatus classifies errors exposing an HTTP status: 5xx, 429 and 408
// are transient, every other status permanent.
func IsHTTPStatus(err error) (Class, bool) {
	var h HTTPStatuser
	if !errors.As(err, &h) {
		return 0, false
	}
	s := h.HTTPStatus()
	switch {
	case s >= 500,
		s == http.StatusTooManyRequests,
		s == http.StatusRequestTimeout:
		return ClassTransient, true
	default:
		return ClassPermanent, true
	}
}

// IsNetworkTransient classifies wire-level failures: timeouts, connection
// resets/refusals, broken pipes and truncated reads are all transient.
func IsNetworkTransient(err error) (Class, bool) {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return ClassTransient, true
	}
	switch {
	case errors.Is(err, syscall.ECONNRESET),
		errors.Is(err, syscall.ECONNREFUSED),
		errors.Is(err, syscall.ECONNABORTED),
		errors.Is(err, syscall.EPIPE),
		errors.Is(err, io.ErrUnexpectedEOF),
		errors.Is(err, io.EOF):
		return ClassTransient, true
	}
	return 0, false
}
