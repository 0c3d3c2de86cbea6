package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"stir/internal/core"
	"stir/internal/obs"
	"stir/internal/twitter"
)

// goldenTweets is the chunk testdata/frame/forward.bin holds: a geotagged
// tweet with multi-byte text, one without geotag or text, and one with
// negative IDs, a pre-epoch time and negative coordinates.
func goldenTweets() (seq int64, tweets []*twitter.Tweet) {
	return 300, []*twitter.Tweet{
		{ID: 1001, UserID: 42, Text: "서울 종로구 #stir", CreatedAt: time.Date(2011, 5, 1, 9, 30, 0, 123456789, time.UTC),
			Geo: &twitter.GeoTag{Lat: 37.5665, Lon: 126.978}},
		{ID: 1002, UserID: 7, CreatedAt: time.Date(2011, 5, 1, 9, 31, 0, 0, time.UTC)},
		{ID: -3, UserID: -1 << 40, Text: "x", CreatedAt: time.Date(1960, 1, 1, 0, 0, 0, 1, time.UTC),
			Geo: &twitter.GeoTag{Lat: -33.5, Lon: -0.25}},
	}
}

// goldenSummaries is the answer testdata/frame/summaries.bin holds: two
// partitions of eight, one of them with a share sum whose canonical
// expansion has two partials.
func goldenSummaries() []*core.Summary {
	sums := make([]*core.Summary, 8)
	sums[2], sums[5] = new(core.Summary), new(core.Summary)
	sums[2].Add(core.UserTerm{Group: core.Top1, Tweets: 3, Districts: 2, Matched: 1})
	sums[2].Add(core.UserTerm{Group: core.Top1, Tweets: 7, Districts: 3, Matched: 5})
	sums[2].Add(core.UserTerm{Group: core.None, Tweets: 2, Districts: 2})
	sums[5].Add(core.UserTerm{Group: core.Top2, Tweets: 10, Districts: 4, Matched: 3})
	return sums
}

// goldenAck is the ack testdata/frame/ack.bin holds.
var goldenAck = ingestAck{Accepted: 256, Seq: 300, DurableSeq: 44}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "frame", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// tweetsEqual compares decoded tweets with the originals field by field:
// times as instants, coordinates by bit pattern.
func tweetsEqual(got []twitter.Tweet, want []*twitter.Tweet) bool {
	if len(got) != len(want) {
		return false
	}
	for i, w := range want {
		g := &got[i]
		if g.ID != w.ID || g.UserID != w.UserID || g.Text != w.Text || !g.CreatedAt.Equal(w.CreatedAt) ||
			(g.Geo == nil) != (w.Geo == nil) {
			return false
		}
		if w.Geo != nil && (math.Float64bits(g.Geo.Lat) != math.Float64bits(w.Geo.Lat) ||
			math.Float64bits(g.Geo.Lon) != math.Float64bits(w.Geo.Lon)) {
			return false
		}
	}
	return true
}

// Both frames are pinned byte for byte, and each golden file decodes back
// to the values that wrote it.
func TestFrameGolden(t *testing.T) {
	seq, tweets := goldenTweets()
	fwd := readGolden(t, "forward.bin")
	if got := appendForward(nil, seq, tweets); !bytes.Equal(got, fwd) {
		t.Fatalf("forward frame\n got %x\nwant %x", got, fwd)
	}
	gotSeq, back, err := readForward(fwd)
	if err != nil || gotSeq != seq || !tweetsEqual(back, tweets) {
		t.Fatalf("forward golden decodes to seq %d, %+v, %v", gotSeq, back, err)
	}

	ack := readGolden(t, "ack.bin")
	if got := appendAck(nil, goldenAck); !bytes.Equal(got, ack) {
		t.Fatalf("ack frame\n got %x\nwant %x", got, ack)
	}
	if back, err := readAck(ack); err != nil || back != goldenAck {
		t.Fatalf("ack golden decodes to %+v, %v", back, err)
	}

	sums := goldenSummaries()
	frame := readGolden(t, "summaries.bin")
	if got := appendSummaries(nil, sums); !bytes.Equal(got, frame) {
		t.Fatalf("summaries frame\n got %x\nwant %x", got, frame)
	}
	dec, err := readSummaries(frame, len(sums))
	if err != nil {
		t.Fatal(err)
	}
	for p := range sums {
		if (dec[p] == nil) != (sums[p] == nil) {
			t.Fatalf("partition %d: decoded %v, want %v", p, dec[p], sums[p])
		}
		if sums[p] != nil && !bytes.Equal(mustJSON(t, dec[p].Analysis()), mustJSON(t, sums[p].Analysis())) {
			t.Fatalf("partition %d: decoded analysis differs", p)
		}
	}
}

// Each decoder rejects what its encoder never writes.
func TestFrameRejects(t *testing.T) {
	seq, tweets := goldenTweets()
	fwd := appendForward(nil, seq, tweets)
	geoLat := bytes.Index(fwd, binary.LittleEndian.AppendUint64(nil, math.Float64bits(37.5665)))
	for name, b := range map[string][]byte{
		"empty":           nil,
		"json":            []byte(`{"seq":1,"tweets":[]}`),
		"unknown version": append([]byte{2}, fwd[1:]...),
		"truncated":       fwd[:len(fwd)-1],
		"trailing bytes":  append(append([]byte{}, fwd...), 0),
		"huge count":      binary.AppendUvarint([]byte{frameVersion, 0}, 1<<62),
		"overlong varint": {frameVersion, 0x80, 0x00, 0},
		"geo flag 2":      {frameVersion, 0, 1, 2, 2, 0, 0, 0, 2},
		"nanoseconds":     binary.AppendUvarint([]byte{frameVersion, 0, 1, 2, 2, 0}, 1e9),
		"NaN latitude": func() []byte {
			b := append([]byte{}, fwd...)
			binary.LittleEndian.PutUint64(b[geoLat:], math.Float64bits(math.NaN()))
			return b
		}(),
	} {
		if _, _, err := readForward(b); err == nil {
			t.Errorf("forward %s: accepted %x", name, b)
		}
	}

	ack := appendAck(nil, goldenAck)
	for name, b := range map[string][]byte{
		"empty":           nil,
		"json":            []byte(`{"accepted":1,"seq":2,"durable_seq":0}`),
		"unknown version": append([]byte{2}, ack[1:]...),
		"truncated":       ack[:len(ack)-1],
		"trailing bytes":  append(append([]byte{}, ack...), 0),
	} {
		if _, err := readAck(b); err == nil {
			t.Errorf("ack %s: accepted %x", name, b)
		}
	}

	sums := appendSummaries(nil, goldenSummaries())
	empty := new(core.Summary).AppendFrame(nil)
	for name, b := range map[string][]byte{
		"empty":              nil,
		"json":               []byte(`{"2":[{},{},{},{},{},{},{}]}`),
		"unknown version":    append([]byte{0}, sums[1:]...),
		"truncated":          sums[:len(sums)-1],
		"trailing bytes":     append(append([]byte{}, sums...), 0),
		"huge count":         binary.AppendUvarint([]byte{frameVersion}, 1<<62),
		"partition past end": append([]byte{frameVersion, 1, 8}, empty...),
		"partitions repeat":  append(append(append([]byte{frameVersion, 2, 3}, empty...), 3), empty...),
		"partitions fall":    append(append(append([]byte{frameVersion, 2, 4}, empty...), 3), empty...),
	} {
		if _, err := readSummaries(b, 8); err == nil {
			t.Errorf("summaries %s: accepted %x", name, b)
		}
	}
}

// A worker answers a JSON body, an unknown version byte, a truncated frame
// or an oversized body with 400 and applies nothing of it.
func TestWorkerIngestRejectsBadFrames(t *testing.T) {
	ds := testDataset(t, 40, 53)
	w := startWorker(t, ds, "wb", nil)
	defer w.stop()
	fwd := appendForward(nil, 9, allTweets(ds)[:20])
	for name, body := range map[string][]byte{
		"json":            mustJSON(t, map[string]any{"seq": 9, "tweets": allTweets(ds)[:20]}),
		"unknown version": append([]byte{frameVersion + 1}, fwd[1:]...),
		"truncated":       fwd[:len(fwd)/2],
	} {
		if got := fenceDo(t, http.MethodPost, w.srv.URL+"/cluster/v1/ingest", "", body); got != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, got)
		}
	}
	// A declared length past maxFrameBytes is refused before any of the
	// body is read or a buffer is sized for it.
	conn, err := net.Dial("tcp", strings.TrimPrefix(w.srv.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /cluster/v1/ingest HTTP/1.1\r\nHost: w\r\nContent-Length: %d\r\n\r\n", maxFrameBytes+1)
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized body: status %d, want 400", resp.StatusCode)
	}
	w.eng.Drain()
	if n, cur := w.eng.Ingested(), w.eng.Cursor(); n != 0 || cur != "" {
		t.Fatalf("rejected bodies applied: %d tweets ingested, cursor %q", n, cur)
	}
}

// A router whose forward a worker refuses with 400 — a worker of another
// frame version — marks the worker down and keeps the chunk journaled for
// replay; the forward path's series count it under their names and kinds.
func TestRouterKeepsChunkJournaledOnBadFrame(t *testing.T) {
	ds := testDataset(t, 40, 53)
	reg := obs.NewRegistry()
	w := startWorkerWrapped(t, ds, "wv", nil, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
			if req.URL.Path == "/cluster/v1/ingest" {
				body, _ := io.ReadAll(req.Body)
				if len(body) > 0 {
					body[0] = '{' // as if the router spoke another version
				}
				req.Body = io.NopCloser(bytes.NewReader(body))
			}
			next.ServeHTTP(rw, req)
		})
	})
	defer w.stop()
	r := testRouter(t, reg, nil)
	join(t, r, w)
	tweets := allTweets(ds)[:50]
	rep := r.IngestBatch(context.Background(), tweets)
	if rep.Forwarded != 0 || rep.Deferred != len(tweets) || len(rep.Errors) != 1 {
		t.Fatalf("refused forward: %+v", rep)
	}
	if !strings.Contains(rep.Errors[0].Error, http.StatusText(http.StatusBadRequest)) {
		t.Fatalf("refusal not reported as a 400: %q", rep.Errors[0].Error)
	}
	v := r.Members().Members[0]
	if v.Health != "suspect" || v.JournalDepth != len(tweets) || v.AckedSeq != 0 {
		t.Fatalf("after a 400 the worker should be suspect with the chunk journaled: %+v", v)
	}
	w.eng.Drain()
	if n := w.eng.Ingested(); n != 0 {
		t.Fatalf("refused frame applied %d tweets", n)
	}
	// A second batch defers without a call, and /metrics shows the forward
	// path's four series with their kinds.
	r.IngestBatch(context.Background(), tweets[:10])
	var expo bytes.Buffer
	if err := reg.WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		"# TYPE stir_cluster_forwarded_total counter",
		`stir_cluster_forwarded_total{worker="wv"} 0`,
		"# TYPE stir_cluster_forward_errors_total counter",
		`stir_cluster_forward_errors_total{worker="wv"} 1`,
		"# TYPE stir_cluster_deferred_total counter",
		`stir_cluster_deferred_total{worker="wv"} 60`,
		"# TYPE stir_cluster_journal_evicted_total counter",
		`stir_cluster_journal_evicted_total{worker="wv"} 0`,
	} {
		if !strings.Contains(expo.String(), line+"\n") {
			t.Errorf("/metrics lacks %q", line)
		}
	}
}

// The forward path's counters count forwarded tweets and evictions per
// worker on /metrics.
func TestRouterForwardCountersOnMetrics(t *testing.T) {
	ds := testDataset(t, 40, 53)
	reg := obs.NewRegistry()
	w := startWorker(t, ds, "wm", nil)
	defer w.stop()
	r := testRouter(t, reg, func(o *Options) { o.JournalDepth = 16 })
	join(t, r, w)
	tweets := allTweets(ds)[:100]
	feed(t, r, tweets, 25)
	srv := httptest.NewServer(obs.Handler(reg))
	defer srv.Close()
	body := string(getBody(t, srv.URL, http.StatusOK))
	for _, line := range []string{
		`stir_cluster_forwarded_total{worker="wm"} 100`,
		`stir_cluster_forward_errors_total{worker="wm"} 0`,
		`stir_cluster_deferred_total{worker="wm"} 0`,
		`stir_cluster_journal_evicted_total{worker="wm"} 84`,
	} {
		if !strings.Contains(body, line+"\n") {
			t.Errorf("/metrics lacks %q", line)
		}
	}
}

// FuzzFrame feeds arbitrary bytes to every frame decoder and checks:
//   - no input panics;
//   - decoding allocates at most a constant multiple of the input's length,
//     so a frame claiming 2^62 tweets fails before it allocates;
//   - an accepted frame re-encodes to exactly its bytes, so equal values
//     write equal bytes (for summaries: however their share sums were
//     accumulated), and the decoded summaries keep their Analysis through
//     a second decode, bit for bit;
//   - the same bytes read as a schedule — of user terms, four bytes per
//     term as in core's FuzzSummary, spread over partitions, of tweets,
//     eight bytes per tweet, and of one ack — build values that
//     decode(encode(x)) returns unchanged, each summary with a
//     bit-identical Analysis.
//
// Seeds live in testdata/fuzz/FuzzFrame.
func FuzzFrame(f *testing.F) {
	const partitions = 8
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			t.Skip()
		}
		var seq int64
		var tweets []twitter.Tweet
		var sums []*core.Summary
		var ack ingestAck
		var fwdErr, sumErr, ackErr error
		if alloc := allocated(func() {
			seq, tweets, fwdErr = readForward(data)
			sums, sumErr = readSummaries(data, partitions)
			ack, ackErr = readAck(data)
		}); alloc > 32*uint64(len(data))+1<<20 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
		}
		if ackErr == nil {
			if b := appendAck(nil, ack); !bytes.Equal(b, data) {
				t.Fatalf("accepted ack frame re-encodes differently:\n in  %x\n out %x", data, b)
			}
		}
		if fwdErr == nil {
			ptrs := make([]*twitter.Tweet, len(tweets))
			for i := range tweets {
				ptrs[i] = &tweets[i]
			}
			if b := appendForward(nil, seq, ptrs); !bytes.Equal(b, data) {
				t.Fatalf("accepted forward frame re-encodes differently:\n in  %x\n out %x", data, b)
			}
		}
		if sumErr == nil {
			b := appendSummaries(nil, sums)
			if !bytes.Equal(b, data) {
				t.Fatalf("accepted summaries frame re-encodes differently:\n in  %x\n out %x", data, b)
			}
			again, err := readSummaries(b, partitions)
			if err != nil {
				t.Fatalf("own encoding %x rejected: %v", b, err)
			}
			for p := range sums {
				if sums[p] != nil && string(mustJSON(t, sums[p].Analysis())) != string(mustJSON(t, again[p].Analysis())) {
					t.Fatalf("partition %d: round trip moved the analysis", p)
				}
			}
		}

		built := make([]*core.Summary, partitions)
		for i := 0; i+4 <= len(data); i += 4 {
			total := int(data[i+1]) + 1
			term := core.UserTerm{
				Group:     core.Group(int(data[i]&0x7f) % core.NumGroups),
				Tweets:    total,
				Matched:   int(data[i+2]) % (total + 1),
				Districts: 1 + int(data[i+3])%total,
			}
			p := (i / 4) % 3 * 3
			if built[p] == nil {
				built[p] = new(core.Summary)
			}
			if data[i]&0x80 != 0 {
				built[p].Remove(term)
				built[p].Add(term)
			}
			built[p].Add(term)
		}
		frame := appendSummaries(nil, built)
		back, err := readSummaries(frame, partitions)
		if err != nil {
			t.Fatalf("summaries of terms %x rejected: %v", frame, err)
		}
		for p := range built {
			if (back[p] == nil) != (built[p] == nil) {
				t.Fatalf("partition %d lost or invented", p)
			}
			if built[p] != nil && string(mustJSON(t, back[p].Analysis())) != string(mustJSON(t, built[p].Analysis())) {
				t.Fatalf("partition %d: wire form moved the analysis", p)
			}
		}

		if len(data) >= 16 {
			a := ingestAck{Accepted: int(data[0]), Seq: int64(binary.LittleEndian.Uint64(data)),
				DurableSeq: int64(binary.LittleEndian.Uint64(data[8:]))}
			if back, err := readAck(appendAck(nil, a)); err != nil || back != a {
				t.Fatalf("ack %+v decodes to %+v, %v", a, back, err)
			}
		}

		var made []*twitter.Tweet
		for i := 0; i+8 <= len(data); i += 8 {
			x := int64(binary.LittleEndian.Uint64(data[i:]))
			tw := &twitter.Tweet{
				ID:        twitter.TweetID(x),
				UserID:    twitter.UserID(x >> (data[i] & 63)),
				Text:      string(data[i : i+int(data[i+1]%9)]),
				CreatedAt: time.Unix(int64(int32(x)), int64(uint32(x>>32))%1e9),
			}
			if data[i+2]&1 != 0 {
				tw.Geo = &twitter.GeoTag{Lat: float64(int8(data[i+3])) / 3, Lon: float64(int32(x>>16)) / 7}
			}
			made = append(made, tw)
		}
		gotSeq, got, err := readForward(appendForward(nil, int64(len(data))-2048, made))
		if err != nil || gotSeq != int64(len(data))-2048 || !tweetsEqual(got, made) {
			t.Fatalf("forward of %d tweets: seq %d, equal %v, %v", len(made), gotSeq, tweetsEqual(got, made), err)
		}
	})
}

// allocated reports the bytes the heap allocated while fn ran.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
