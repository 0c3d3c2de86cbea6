package twitter

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"
)

// flushCountingWriter is a streaming ResponseWriter that counts Flush calls
// and holds its first Write until release is closed, so a test can pile
// tweets up behind one slow write.
type flushCountingWriter struct {
	header  http.Header
	started chan struct{} // closed when the first Write begins
	release chan struct{} // the first Write returns once this is closed

	mu      sync.Mutex
	buf     bytes.Buffer
	writes  int
	flushes int
}

func newFlushCountingWriter() *flushCountingWriter {
	return &flushCountingWriter{header: http.Header{}, started: make(chan struct{}), release: make(chan struct{})}
}

func (w *flushCountingWriter) Header() http.Header { return w.header }
func (w *flushCountingWriter) WriteHeader(int)     {}

func (w *flushCountingWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	w.writes++
	first := w.writes == 1
	w.mu.Unlock()
	if first {
		close(w.started)
		<-w.release
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *flushCountingWriter) Flush() {
	w.mu.Lock()
	w.flushes++
	w.mu.Unlock()
}

// lines returns the complete lines written so far and the flush count.
func (w *flushCountingWriter) lines() ([]string, int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	s := w.buf.String()
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return strings.Split(s[:i], "\n"), w.flushes
	}
	return nil, w.flushes
}

// serveSample runs handleSample on w until the returned stop is called.
func serveSample(t *testing.T, svc *Service, w http.ResponseWriter, query string) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	r := httptest.NewRequest(http.MethodGet, "/1/statuses/sample.json"+query, nil).WithContext(ctx)
	s := NewAPIServer(svc, ServerOptions{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.handleSample(w, r)
	}()
	waitFor(t, func() bool { return svc.StreamerCount() == 1 })
	return func() {
		cancel()
		<-done
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("timed out")
		}
		time.Sleep(time.Millisecond)
	}
}

// A backlog queued behind a slow write goes out in a few coalesced flushes,
// every tweet once and in order.
func TestSampleCoalescesBacklog(t *testing.T) {
	const n = 200
	svc := NewService()
	u := newUser(t, svc, "a", "")
	w := newFlushCountingWriter()
	stop := serveSample(t, svc, w, "")

	var posted []*Tweet
	post := func(i int) {
		tw, err := svc.PostTweet(u.ID, "tweet <"+itoa(int64(i))+"> 서울", t0.Add(time.Duration(i)*time.Second), nil)
		if err != nil {
			t.Fatal(err)
		}
		posted = append(posted, tw)
	}
	post(0)
	<-w.started // the handler holds tweet 0 in a blocked write
	for i := 1; i < n; i++ {
		post(i)
	}
	close(w.release)
	waitFor(t, func() bool { got, _ := w.lines(); return len(got) == n })
	stop()

	got, flushes := w.lines()
	for i, line := range got {
		want, err := json.Marshal(posted[i])
		if err != nil {
			t.Fatal(err)
		}
		if line != string(want) {
			t.Fatalf("line %d = %s, want %s", i, line, want)
		}
	}
	if flushes >= n {
		t.Fatalf("%d tweets took %d flushes, want fewer than one per tweet", n, flushes)
	}
	if shed := svc.StreamShed(); shed != 0 {
		t.Fatalf("stream shed %d tweets", shed)
	}
}

// A tweet posted to an idle stream is flushed at once: the client has it
// without a second post pushing it out.
func TestSampleIdleTweetArrivesAlone(t *testing.T) {
	svc := NewService()
	u := newUser(t, svc, "a", "")
	_, c := startAPI(t, svc, ServerOptions{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	got := make(chan *Tweet, 1)
	done := make(chan error, 1)
	go func() {
		done <- c.Stream(ctx, "", func(tw *Tweet) bool { got <- tw; return false })
	}()
	waitFor(t, func() bool { return svc.StreamerCount() == 1 })
	posted, err := svc.PostTweet(u.ID, "only one", t0, &GeoTag{Lat: 37.5665, Lon: 126.978})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case tw := <-got:
		if !sameTweet(tw, posted) {
			t.Fatalf("received %+v, posted %+v", tw, posted)
		}
	case <-ctx.Done():
		t.Fatal("a lone tweet never reached the client")
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// The track filter keeps exactly the tweets whose lower-cased text contains
// the lower-cased filter, the rule it applied before the filter was lowered
// once per connection.
func TestSampleTrackFilter(t *testing.T) {
	texts := []string{
		"Lady GAGA in 서울", "gaga", "unrelated", "GaGa 강남구", "서울 only",
		"ＧＡＧＡ full width", "ga ga", "xxgAgAxx", "",
	}
	for _, track := range []string{"GaGa", "서울", "gA"} {
		svc := NewService()
		u := newUser(t, svc, "a", "")
		w := newFlushCountingWriter()
		close(w.release)
		stop := serveSample(t, svc, w, "?track="+url.QueryEscape(track))
		var want []string
		for _, text := range texts {
			if _, err := svc.PostTweet(u.ID, text, t0, nil); err != nil {
				t.Fatal(err)
			}
			if strings.Contains(strings.ToLower(text), strings.ToLower(track)) {
				want = append(want, text)
			}
		}
		// A sentinel every filter keeps marks the end of the batch.
		if _, err := svc.PostTweet(u.ID, "end "+track, t0, nil); err != nil {
			t.Fatal(err)
		}
		want = append(want, "end "+track)
		waitFor(t, func() bool { got, _ := w.lines(); return len(got) == len(want) })
		stop()
		got, _ := w.lines()
		for i, line := range got {
			var tw Tweet
			if err := json.Unmarshal([]byte(line), &tw); err != nil {
				t.Fatal(err)
			}
			if tw.Text != want[i] {
				t.Fatalf("track %q: tweet %d = %q, want %q (all: %q)", track, i, tw.Text, want[i], want)
			}
		}
	}
}
