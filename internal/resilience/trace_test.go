package resilience

import (
	"context"
	"errors"
	"testing"
	"time"

	"stir/internal/obs"
	"stir/internal/obs/trace"
)

func noSleep(context.Context, time.Duration) error { return nil }

func traceAnnots(t *testing.T, tr *trace.Tracer) (trace.Record, map[string][]string) {
	t.Helper()
	recs := tr.Records()
	if len(recs) != 1 {
		t.Fatalf("got %d spans, want exactly 1 for the logical request", len(recs))
	}
	m := map[string][]string{}
	for _, a := range recs[0].Annots {
		m[a.Key] = append(m[a.Key], a.Val)
	}
	return recs[0], m
}

func TestRetryAnnotatesOneSpan(t *testing.T) {
	tr := trace.New(trace.Options{Service: "cli", Sample: 1, Metrics: obs.NewRegistry()})
	ctx, sp := tr.Root(context.Background(), "twitter.get /x")

	p := &Policy{MaxAttempts: 4, Metrics: obs.Discard, Sleep: noSleep}
	calls := 0
	err := p.Do(ctx, func(context.Context) error {
		calls++
		if calls < 3 {
			return MarkTransient(errors.New("transient flake"))
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
	sp.End()

	rec, annots := traceAnnots(t, tr)
	if rec.Name != "twitter.get /x" {
		t.Fatalf("span name %q", rec.Name)
	}
	// Two failed attempts annotated on the single span, plus the final count.
	if got := annots["retry.fail"]; len(got) != 2 || got[0] != "1 transient" || got[1] != "2 transient" {
		t.Fatalf("retry.fail = %v", got)
	}
	if len(annots["retry.backoff"]) != 2 {
		t.Fatalf("retry.backoff = %v", annots["retry.backoff"])
	}
	if got := annots["retry.attempts"]; len(got) != 1 || got[0] != "3" {
		t.Fatalf("retry.attempts = %v", got)
	}
}

func TestRetryAnnotatesExhaustion(t *testing.T) {
	tr := trace.New(trace.Options{Service: "cli", Sample: 1, Metrics: obs.NewRegistry()})
	ctx, sp := tr.Root(context.Background(), "op")

	p := &Policy{MaxAttempts: 2, Metrics: obs.Discard, Sleep: noSleep}
	if err := p.Do(ctx, func(context.Context) error { return MarkTransient(errors.New("down")) }); err == nil {
		t.Fatal("a failing op succeeded")
	}
	sp.End()

	_, annots := traceAnnots(t, tr)
	if got := annots["retry.fail"]; len(got) != 2 || got[0] != "1 transient" || got[1] != "2 transient" {
		t.Fatalf("retry.fail = %v", got)
	}
	if got := annots["retry.outcome"]; len(got) != 1 || got[0] != "exhausted" {
		t.Fatalf("retry.outcome = %v", got)
	}
	if got := annots["retry.attempts"]; len(got) != 1 || got[0] != "2" {
		t.Fatalf("retry.attempts = %v", got)
	}
}

func TestRetryPermanentAnnotation(t *testing.T) {
	tr := trace.New(trace.Options{Service: "cli", Sample: 1, Metrics: obs.NewRegistry()})
	ctx, sp := tr.Root(context.Background(), "op")
	p := &Policy{MaxAttempts: 4, Metrics: obs.Discard, Sleep: noSleep}
	calls := 0
	err := p.Do(ctx, func(context.Context) error {
		calls++
		return MarkPermanent(errors.New("bad request"))
	})
	if err == nil || calls != 1 {
		t.Fatalf("err=%v calls=%d, want immediate permanent stop", err, calls)
	}
	sp.End()
	_, annots := traceAnnots(t, tr)
	if got := annots["retry.outcome"]; len(got) != 1 || got[0] != "permanent" {
		t.Fatalf("retry.outcome = %v", got)
	}
	if got := annots["retry.fail"]; len(got) != 1 || got[0] != "1 permanent" {
		t.Fatalf("retry.fail = %v", got)
	}
}

func TestRetryUntracedContextNoOp(t *testing.T) {
	// No span in ctx: Do must work identically and create no spans.
	p := &Policy{MaxAttempts: 3, Metrics: obs.Discard, Sleep: noSleep}
	calls := 0
	err := p.Do(context.Background(), func(context.Context) error {
		calls++
		if calls < 2 {
			return MarkTransient(errors.New("flake"))
		}
		return nil
	})
	if err != nil || calls != 2 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}
