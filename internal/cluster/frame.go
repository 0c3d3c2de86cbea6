package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"time"

	"stir/internal/core"
	"stir/internal/twitter"
)

// The two hot cluster routes speak one binary frame instead of JSON: the
// router's forwards (POST /cluster/v1/ingest) with their acks, and the
// workers' partition summaries (GET /cluster/v1/summaries). A frame starts
// with frameVersion; integers are varints (zig-zag for signed values),
// floats their IEEE 754 bits, little-endian. A decoder accepts only what
// its encoder writes — the known version, minimal varints, no trailing
// bytes — so an accepted frame re-encodes to the same bytes, and it
// allocates at most a constant multiple of the frame's length whatever
// counts the frame claims. DESIGN.md §13 has the layout.

// frameVersion is the first byte of every frame. A peer that reads another
// version (or a JSON body, whose first byte is '{') answers 400: routers and
// workers upgrade together.
const frameVersion = 1

// frameContentType labels frame bodies.
const frameContentType = "application/octet-stream"

// maxFrameBytes bounds a frame body either side reads.
const maxFrameBytes = 64 << 20

// Smallest encodings, which bound the counts a frame can claim: a tweet is
// at least six one-byte fields, and a partition its number and NumGroups
// empty groups of five zero bytes.
const (
	minTweetBytes     = 6
	minPartitionBytes = 1 + 5*core.NumGroups
)

var errFrame = errors.New("cluster: malformed frame")

// frameReader reads a frame's fields in order. The first failure sticks:
// later reads return zero values and err reports it.
type frameReader struct {
	b   []byte
	err error
}

func (r *frameReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{errFrame}, args...)...)
	}
}

// uvarint reads a minimal unsigned varint.
func (r *frameReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 || n > 1 && r.b[n-1] == 0 {
		r.fail("truncated or non-minimal varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// varint reads a minimal zig-zag varint, as binary.AppendVarint writes it.
func (r *frameReader) varint() int64 {
	u := r.uvarint()
	x := int64(u >> 1)
	if u&1 != 0 {
		x = ^x
	}
	return x
}

// next returns the next n bytes.
func (r *frameReader) next(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)) {
		r.fail("%d bytes claimed, %d left", n, len(r.b))
		return nil
	}
	b := r.b[:n]
	r.b = r.b[n:]
	return b
}

func (r *frameReader) float() float64 {
	b := r.next(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// version checks the leading version byte.
func (r *frameReader) version() {
	if v := r.next(1); v != nil && v[0] != frameVersion {
		r.fail("unknown frame version %d", v[0])
	}
}

// count reads an element count and checks that the bytes left can hold
// that many elements of at least min bytes each, so no claimed count
// allocates past the frame's length.
func (r *frameReader) count(min int) int {
	n := r.uvarint()
	if r.err == nil && n > uint64(len(r.b)/min) {
		r.fail("%d elements claimed in %d bytes", n, len(r.b))
		return 0
	}
	return int(n)
}

// end fails on trailing bytes and returns the first failure.
func (r *frameReader) end() error {
	if r.err == nil && len(r.b) != 0 {
		r.fail("%d trailing bytes", len(r.b))
	}
	return r.err
}

// appendForward appends the forward frame of one seq-stamped chunk: the
// version, the varint seq and the uvarint tweet count, then per tweet its
// varint ID and UserID, CreatedAt as varint Unix seconds and uvarint
// nanoseconds, the uvarint text length and the text, and a geo flag byte,
// 1 followed by the latitude and longitude bits or 0.
func appendForward(dst []byte, seq int64, tweets []*twitter.Tweet) []byte {
	dst = append(dst, frameVersion)
	dst = binary.AppendVarint(dst, seq)
	dst = binary.AppendUvarint(dst, uint64(len(tweets)))
	for _, t := range tweets {
		dst = binary.AppendVarint(dst, int64(t.ID))
		dst = binary.AppendVarint(dst, int64(t.UserID))
		dst = binary.AppendVarint(dst, t.CreatedAt.Unix())
		dst = binary.AppendUvarint(dst, uint64(t.CreatedAt.Nanosecond()))
		dst = binary.AppendUvarint(dst, uint64(len(t.Text)))
		dst = append(dst, t.Text...)
		if t.Geo == nil {
			dst = append(dst, 0)
			continue
		}
		dst = append(dst, 1)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(t.Geo.Lat))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(t.Geo.Lon))
	}
	return dst
}

// readForward decodes a forward frame. A first pass checks every tweet
// and sizes the batch; the second fills one slab of tweets, one of geotags
// and one string holding every text, so a batch costs three allocations
// whatever its size. CreatedAt comes back in UTC. A non-finite coordinate
// is an error, as it was for the JSON decoder.
func readForward(b []byte) (seq int64, tweets []twitter.Tweet, err error) {
	r := frameReader{b: b}
	r.version()
	seq = r.varint()
	n := r.count(minTweetBytes)
	first := r
	geos, textBytes := 0, 0
	var t twitter.Tweet
	for i := 0; i < n && r.err == nil; i++ {
		text, _, geo := readTweet(&r, &t)
		textBytes += len(text)
		if geo {
			geos++
		}
	}
	if err := r.end(); err != nil {
		return 0, nil, err
	}
	r = first
	tweets = make([]twitter.Tweet, n)
	tags := make([]twitter.GeoTag, 0, geos)
	var texts strings.Builder
	texts.Grow(textBytes)
	for i := range tweets {
		t := &tweets[i]
		text, tag, geo := readTweet(&r, t)
		if len(text) > 0 {
			// The builder never reallocates, so each text stays a view of
			// the one string it ends up holding.
			texts.Write(text)
			all := texts.String()
			t.Text = all[len(all)-len(text):]
		}
		if geo {
			tags = append(tags, tag)
			t.Geo = &tags[len(tags)-1]
		}
	}
	return seq, tweets, nil
}

// readTweet reads one tweet of a forward frame into t, all but its text
// and geotag, and returns those: the text's bytes, and the geotag with
// whether the tweet has one.
func readTweet(r *frameReader, t *twitter.Tweet) (text []byte, g twitter.GeoTag, geo bool) {
	t.ID = twitter.TweetID(r.varint())
	t.UserID = twitter.UserID(r.varint())
	sec, nsec := r.varint(), r.uvarint()
	if nsec >= 1e9 {
		r.fail("%d nanoseconds", nsec)
	}
	t.CreatedAt = time.Unix(sec, int64(nsec)).UTC()
	if r.err == nil && t.CreatedAt.Unix() != sec {
		r.fail("time %d out of range", sec)
	}
	text = r.next(r.uvarint())
	switch flag := r.next(1); {
	case flag == nil:
	case flag[0] == 1:
		g = twitter.GeoTag{Lat: r.float(), Lon: r.float()}
		if math.IsNaN(g.Lat) || math.IsInf(g.Lat, 0) || math.IsNaN(g.Lon) || math.IsInf(g.Lon, 0) {
			r.fail("non-finite geotag")
		}
		geo = true
	case flag[0] != 0:
		r.fail("geo flag %d", flag[0])
	}
	return text, g, geo && r.err == nil
}

// appendAck appends the ack frame of an applied forward: the version, the
// uvarint count of tweets accepted, then the varint applied and durable
// sequences.
func appendAck(dst []byte, a ingestAck) []byte {
	dst = append(dst, frameVersion)
	dst = binary.AppendUvarint(dst, uint64(a.Accepted))
	dst = binary.AppendVarint(dst, a.Seq)
	return binary.AppendVarint(dst, a.DurableSeq)
}

// readAck decodes an ack frame.
func readAck(b []byte) (ingestAck, error) {
	r := frameReader{b: b}
	r.version()
	n := r.uvarint()
	a := ingestAck{Seq: r.varint(), DurableSeq: r.varint()}
	if r.err == nil && n > math.MaxInt {
		r.fail("%d tweets accepted", n)
	}
	a.Accepted = int(n)
	return a, r.end()
}

// appendSummaries appends the summaries frame: the version and the uvarint
// count of non-nil summaries, then for each, in increasing partition order,
// its uvarint partition number and the summary (core.Summary.AppendFrame).
func appendSummaries(dst []byte, sums []*core.Summary) []byte {
	dst = append(dst, frameVersion)
	n := 0
	for _, s := range sums {
		if s != nil {
			n++
		}
	}
	dst = binary.AppendUvarint(dst, uint64(n))
	for p, s := range sums {
		if s != nil {
			dst = binary.AppendUvarint(dst, uint64(p))
			dst = s.AppendFrame(dst)
		}
	}
	return dst
}

// readSummaries decodes a summaries frame into one summary per partition
// of a partitions-way split, nil where the frame has none. Partition
// numbers must rise strictly and stay below partitions; every check of
// core.Summary.ReadFrame applies to each summary.
func readSummaries(b []byte, partitions int) ([]*core.Summary, error) {
	r := frameReader{b: b}
	r.version()
	n := r.count(minPartitionBytes)
	if r.err != nil {
		return nil, r.err
	}
	out := make([]*core.Summary, partitions)
	slab := make([]core.Summary, n)
	last := -1
	for i := range slab {
		p := r.uvarint()
		if r.err != nil {
			return nil, r.err
		}
		if p >= uint64(partitions) || int(p) <= last {
			return nil, fmt.Errorf("%w: partition %d after %d of %d", errFrame, p, last, partitions)
		}
		rest, err := slab[i].ReadFrame(r.b)
		if err != nil {
			return nil, fmt.Errorf("%w: partition %d: %w", errFrame, p, err)
		}
		r.b = rest
		last = int(p)
		out[p] = &slab[i]
	}
	if err := r.end(); err != nil {
		return nil, err
	}
	return out, nil
}

// framePool recycles the buffers frames are encoded into and read from.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// withBody reads a body of declared length n (-1 when unknown) and hands
// it to fn. A body of known length goes into a pooled buffer, sized once
// rather than by doubling, which returns to the pool when fn returns, so
// fn must copy what it keeps. A body past maxFrameBytes is an error.
func withBody(rd io.Reader, n int64, fn func([]byte) error) error {
	if n < 0 {
		b, err := io.ReadAll(io.LimitReader(rd, maxFrameBytes+1))
		if err != nil {
			return err
		}
		if len(b) > maxFrameBytes {
			return fmt.Errorf("%w: body past %d bytes", errFrame, maxFrameBytes)
		}
		return fn(b)
	}
	if n > maxFrameBytes {
		return fmt.Errorf("%w: %d-byte body", errFrame, n)
	}
	buf := framePool.Get().(*[]byte)
	defer framePool.Put(buf)
	if int64(cap(*buf)) < n {
		*buf = make([]byte, n)
	}
	b := (*buf)[:n]
	if _, err := io.ReadFull(rd, b); err != nil {
		return err
	}
	return fn(b)
}

// sentBody is a request body over a buffer its sender reuses. The
// transport may still read a body after Do returns (http.RoundTripper's
// contract), but it always closes it; wait blocks until it has.
type sentBody struct {
	bytes.Reader
	once   sync.Once
	closed chan struct{}
}

func newSentBody(b []byte) *sentBody {
	s := &sentBody{closed: make(chan struct{})}
	s.Reset(b)
	return s
}

func (s *sentBody) Close() error {
	s.once.Do(func() { close(s.closed) })
	return nil
}

func (s *sentBody) wait() { <-s.closed }
