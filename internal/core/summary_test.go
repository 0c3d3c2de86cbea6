package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// bigSum is the reference for exactSum: the sum held in a math/big float
// wide enough that no addition rounds (float64s span about 2100 bits of
// exponent), then rounded once to the nearest float64, ties to even.
func bigSum(xs []float64) float64 {
	acc := new(big.Float).SetPrec(4000)
	for _, x := range xs {
		acc.Add(acc, new(big.Float).SetPrec(4000).SetFloat64(x))
	}
	f, _ := acc.Float64()
	return f
}

func sumOf(xs ...float64) float64 {
	var s exactSum
	for _, x := range xs {
		s.add(x)
	}
	return s.value()
}

func TestExactSumTable(t *testing.T) {
	tiny := math.SmallestNonzeroFloat64
	ulp1 := math.Nextafter(1, 2) - 1 // 2^-52
	cases := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"cancellation", []float64{1, 1e100, 1, -1e100}, 2},
		{"cancellation to zero", []float64{0.1, 0.2, 0.3, -0.3, -0.2, -0.1}, 0},
		{"tenths", []float64{0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1}, 1},
		{"near zero", []float64{tiny, tiny, -tiny, 3 * tiny}, 4 * tiny},
		{"near one", []float64{1, -ulp1 / 4, -ulp1 / 4}, 1 - ulp1/2},
		{"one and a third", []float64{1.0 / 3, 1.0 / 3, 1.0 / 3}, 1},
		// 1 + 2^-53 is exactly halfway between 1 and its successor: ties
		// to even keep 1.
		{"tie to even down", []float64{1, ulp1 / 2}, 1},
		// 1 + 3·2^-53 is halfway between two floats: ties to even rounds up.
		{"tie to even up", []float64{1, 3 * ulp1 / 2}, 1 + 2*ulp1},
		// A partial below the tie breaks it: the exact sum is past
		// halfway, so it rounds away even though the top two tie.
		{"tie broken by a lower partial", []float64{1, ulp1 / 2, ulp1 / 1024}, 1 + ulp1},
		{"tie broken downward", []float64{1, -ulp1 / 4, -ulp1 / 1024}, 1 - ulp1/2},
		// Python's documented case: fsum([1e-16, 1, 1e16]) rounds the last
		// digit to 2, where a plain left-to-right sum gives 1e16.
		{"fsum docs", []float64{1e-16, 1, 1e16}, 10000000000000002},
	}
	for _, tc := range cases {
		if got := sumOf(tc.in...); got != tc.want {
			t.Errorf("%s: exact sum %v, want %v", tc.name, got, tc.want)
		}
		if ref := bigSum(tc.in); ref != tc.want {
			t.Errorf("%s: math/big reference %v, want %v (bad table entry)", tc.name, ref, tc.want)
		}
	}
}

// Removing every term, in any order, leaves exactly zero and no partials.
func TestExactSumRoundTripToZero(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		xs := make([]float64, 1+rnd.Intn(500))
		for i := range xs {
			total := 1 + rnd.Intn(1000)
			xs[i] = float64(rnd.Intn(total+1)) / float64(total)
		}
		var s exactSum
		for _, x := range xs {
			s.add(x)
		}
		rnd.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		for _, x := range xs {
			s.add(-x)
		}
		if v := s.value(); v != 0 || len(s.parts) != 0 {
			t.Fatalf("trial %d: after removing everything value %v, %d partials", trial, v, len(s.parts))
		}
	}
}

// Analyze over the batch groupings equals a Summary built from their terms
// in any order with removals along the way, and a merge of any split.
func TestSummaryOrderAndSplitIndependent(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	users := randomGroupings(rnd, 400)
	want := Analyze(users)

	var s Summary
	extra := randomGroupings(rnd, 50)
	for _, i := range rnd.Perm(len(users)) {
		s.Add(users[i].Term())
		if len(extra) > 0 && rnd.Intn(4) == 0 {
			s.Add(extra[0].Term())
			s.Remove(extra[0].Term())
			extra = extra[1:]
		}
	}
	if got := s.Analysis(); got != want {
		t.Fatalf("shuffled summary:\n got %+v\nwant %+v", got, want)
	}

	var shards [3]Summary
	for _, u := range users {
		shards[rnd.Intn(len(shards))].Add(u.Term())
	}
	var merged Summary
	for i := range shards {
		merged.Merge(&shards[i])
	}
	if got := merged.Analysis(); got != want {
		t.Fatalf("merged summary:\n got %+v\nwant %+v", got, want)
	}
	u, tw := merged.Counts()
	for g := range u {
		if u[g] != want.Groups[g].Users || tw[g] != want.Groups[g].Tweets {
			t.Fatalf("group %d counts %d/%d, analysis %d/%d", g, u[g], tw[g], want.Groups[g].Users, want.Groups[g].Tweets)
		}
	}
}

// Analyze's mean share per group is the correctly rounded sum of its users'
// shares (the math/big sum, rounded once) divided by the user count.
func TestAnalyzeMatchShareCorrectlyRounded(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	users := randomGroupings(rnd, 2000)
	a := Analyze(users)
	shares := make([][]float64, NumGroups)
	for _, u := range users {
		shares[u.Group] = append(shares[u.Group], u.MatchShare())
	}
	for g, xs := range shares {
		if len(xs) == 0 {
			continue
		}
		if want := bigSum(xs) / float64(len(xs)); a.Groups[g].AvgMatchShare != want {
			t.Errorf("group %v: AvgMatchShare %v, correctly rounded %v", Group(g), a.Groups[g].AvgMatchShare, want)
		}
	}
}

// One envelope, two encodings: a single engine's body is exactly the five
// analysis fields (no cluster accounting, not even "partial":false), and
// the router's filled-in envelope survives a JSON round trip unchanged.
func TestGroupsResultEncodings(t *testing.T) {
	a := Analyze(randomGroupings(rand.New(rand.NewSource(2)), 100))
	encode := func(v any) []byte {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	five := encode(struct {
		Users               int        `json:"users"`
		Tweets              int        `json:"tweets"`
		Groups              []GroupRow `json:"groups"`
		OverallAvgDistricts float64    `json:"overall_avg_districts"`
		OverallMatchShare   float64    `json:"overall_match_share"`
	}{a.Users, a.Tweets, a.Rows(), a.OverallAvgDistricts, a.OverallMatchShare})
	if got := encode(a.Result()); !bytes.Equal(got, five) {
		t.Fatalf("engine envelope:\n got %s\nwant %s", got, five)
	}

	router := a.Result()
	router.Workers, router.WorkersOK, router.Partial = 3, 2, true
	router.Errors = []WorkerError{{Worker: "w2", Error: "down (awaiting rejoin)"}}
	body := encode(router)
	var back GroupsResult
	if err := json.Unmarshal(body, &back); err != nil {
		t.Fatal(err)
	}
	if again := encode(back); !bytes.Equal(again, body) {
		t.Fatalf("router envelope round trip:\n got %s\nwant %s", again, body)
	}
	for _, field := range []string{`"workers":3`, `"workers_ok":2`, `"partial":true`, `"errors":[{"worker":"w2"`} {
		if !bytes.Contains(body, []byte(field)) {
			t.Fatalf("router envelope lacks %s: %s", field, body)
		}
	}
}

// randomGroupings makes n users with plausible terms: matched ≤ total,
// group None exactly when nothing matched.
func randomGroupings(rnd *rand.Rand, n int) []UserGrouping {
	out := make([]UserGrouping, n)
	for i := range out {
		total := 1 + rnd.Intn(60)
		matched := rnd.Intn(total + 1)
		g := None
		if matched > 0 {
			g = Group(rnd.Intn(int(TopPlus) + 1))
		}
		out[i] = UserGrouping{
			UserID:            int64(i + 1),
			Group:             g,
			TotalTweets:       total,
			DistinctDistricts: 1 + rnd.Intn(total),
			MatchedTweets:     matched,
		}
	}
	return out
}

// FuzzSummary decodes bytes into a schedule of user terms added and removed,
// and checks the summary against its references: Analyze over the users
// still present, the math/big sum of their shares, and merges of two
// shuffled shard splits of them. Seeds live in testdata/fuzz/FuzzSummary.
func FuzzSummary(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			t.Skip()
		}
		// Four bytes per step. b0: bit 7 removes a present user (chosen by
		// b1), else b0 picks the group; b1+1 is the tweet count, b2 the
		// matched count (mod tweets+1), b3 the district count.
		var s Summary
		var live []UserGrouping
		for i := 0; i+4 <= len(data); i += 4 {
			b0, b1, b2, b3 := data[i], data[i+1], data[i+2], data[i+3]
			if b0&0x80 != 0 && len(live) > 0 {
				k := int(b1) % len(live)
				s.Remove(live[k].Term())
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
				continue
			}
			total := int(b1) + 1
			u := UserGrouping{
				UserID:            int64(i),
				Group:             Group(int(b0&0x7f) % NumGroups),
				TotalTweets:       total,
				MatchedTweets:     int(b2) % (total + 1),
				DistinctDistricts: 1 + int(b3)%total,
			}
			s.Add(u.Term())
			live = append(live, u)
		}

		want := Analyze(live)
		if got := s.Analysis(); got != want {
			t.Fatalf("summary analysis\n got %+v\nwant %+v", got, want)
		}
		shares := make([][]float64, NumGroups)
		for _, u := range live {
			shares[u.Group] = append(shares[u.Group], u.MatchShare())
		}
		for g := range shares {
			if got, ref := s.groups[g].shares.value(), bigSum(shares[g]); got != ref {
				t.Fatalf("group %d share sum %v, math/big %v", g, got, ref)
			}
		}

		h := fnv.New64a()
		h.Write(data)
		rnd := rand.New(rand.NewSource(int64(h.Sum64())))
		split := func() Summary {
			shards := make([]Summary, 1+rnd.Intn(4))
			for _, k := range rnd.Perm(len(live)) {
				shards[rnd.Intn(len(shards))].Add(live[k].Term())
			}
			var m Summary
			for i := range shards {
				m.Merge(&shards[i])
			}
			return m
		}
		a, b := split(), split()
		if ga, gb := a.Analysis(), b.Analysis(); ga != want || gb != want {
			t.Fatalf("merged splits disagree:\n a %+v\n b %+v\nwant %+v", ga, gb, want)
		}
	})
}

// analysisBits is an Analysis in a form that compares float fields by bit
// pattern: its JSON, where every float64 is written as the shortest decimal
// that reads back to the same bits.
func analysisBits(t *testing.T, a Analysis) string {
	t.Helper()
	b, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// readWhole decodes a summary frame that must fill b exactly.
func readWhole(s *Summary, b []byte) error {
	rest, err := s.ReadFrame(b)
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("%d trailing bytes", len(rest))
	}
	return err
}

// A summary survives its wire form: the frame of a Summary built from
// random terms with removals decodes to a summary whose Analysis is
// bit-identical and which re-encodes to the same bytes, and merging decoded
// halves gives the same answer as Analyze.
func TestSummaryFrameRoundTrip(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	users := randomGroupings(rnd, 500)
	var s, halves [2]Summary
	for _, u := range users {
		s[0].Add(u.Term())
		halves[rnd.Intn(2)].Add(u.Term())
	}
	for _, u := range randomGroupings(rnd, 40) {
		s[0].Add(u.Term())
		s[0].Remove(u.Term())
	}
	want := analysisBits(t, Analyze(users))
	b := s[0].AppendFrame(nil)
	if err := readWhole(&s[1], b); err != nil {
		t.Fatal(err)
	}
	if got := analysisBits(t, s[1].Analysis()); got != want {
		t.Fatalf("decoded analysis\n got %s\nwant %s", got, want)
	}
	if again := s[1].AppendFrame(nil); !bytes.Equal(again, b) {
		t.Fatalf("decoded summary re-encodes differently:\n %x\n %x", b, again)
	}
	var merged Summary
	for i := range halves {
		var back Summary
		if err := readWhole(&back, halves[i].AppendFrame(nil)); err != nil {
			t.Fatal(err)
		}
		merged.Merge(&back)
	}
	if got := analysisBits(t, merged.Analysis()); got != want {
		t.Fatalf("merged decoded halves\n got %s\nwant %s", got, want)
	}

	var empty Summary
	if b := empty.AppendFrame([]byte{0xAA}); !bytes.Equal(b, append([]byte{0xAA}, groupsFrame()...)) {
		t.Fatalf("empty summary appends %x", b)
	}
	if !empty.Empty() || s[0].Empty() {
		t.Fatal("Empty disagrees with the users held")
	}
	rest, err := empty.ReadFrame(append(groupsFrame(), 1, 2))
	if err != nil || !bytes.Equal(rest, []byte{1, 2}) {
		t.Fatalf("ReadFrame left %x, %v; want the 2 bytes after the summary", rest, err)
	}
}

// groupsFrame is a summary frame whose first groups are gs and whose
// remaining groups are empty (five zero bytes each).
func groupsFrame(gs ...[]byte) []byte {
	var out []byte
	for _, g := range gs {
		out = append(out, g...)
	}
	for i := len(gs); i < NumGroups; i++ {
		out = append(out, 0, 0, 0, 0, 0)
	}
	return out
}

// group is one group's frame: four counts and the given partials.
func group(users, tweets, districts, matched uint64, parts ...float64) []byte {
	var b []byte
	for _, v := range []uint64{users, tweets, districts, matched, uint64(len(parts))} {
		b = binary.AppendUvarint(b, v)
	}
	for _, p := range parts {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p))
	}
	return b
}

// The decoder rejects what no summary can hold, and every byte string its
// encoder would not write, and leaves its target alone.
func TestSummaryFrameRejects(t *testing.T) {
	for name, frame := range map[string][]byte{
		"empty":              nil,
		"one group short":    groupsFrame()[:5*(NumGroups-1)],
		"truncated partial":  groupsFrame(group(1, 2, 1, 1, 0.5))[:5+4],
		"overlong varint":    append([]byte{0x80, 0x00, 0, 0, 0}, groupsFrame()[5:]...),
		"count past MaxInt":  groupsFrame(group(1<<63, 0, 0, 0)),
		"partials past end":  append([]byte{0, 0, 0, 0, 5}, groupsFrame()[5:]...),
		"huge partial count": append(binary.AppendUvarint([]byte{0, 0, 0, 0}, 1<<62), groupsFrame()[5:]...),
		"NaN partial":        groupsFrame(group(1, 2, 1, 1, math.NaN())),
		"infinite partial":   groupsFrame(group(1, 2, 1, 1, math.Inf(1))),
		"1e300 partial":      groupsFrame(group(1, 2, 1, 1, 1e300, -1e300)),
		"-2^54 partial":      groupsFrame(group(1, 2, 1, 1, -18014398509481984)),
		"noncanonical":       groupsFrame(group(3, 9, 3, 5, 0.1, 1, 1)),
		"unsorted partials":  groupsFrame(group(2, 4, 2, 2, 0x1p-53, 1e-17)),
		"zero partial":       groupsFrame(group(1, 2, 1, 1, 0)),
		"negative zero":      groupsFrame(group(1, 2, 1, 1, math.Copysign(0, -1))),
	} {
		var s Summary
		s.Add(UserTerm{Group: Top1, Tweets: 2, Districts: 1, Matched: 1})
		before := analysisBits(t, s.Analysis())
		if err := readWhole(&s, frame); err == nil {
			t.Errorf("%s: accepted %x", name, frame)
		}
		if got := analysisBits(t, s.Analysis()); got != before {
			t.Errorf("%s: rejected %x but changed the summary", name, frame)
		}
	}
	// The canonical expansion of the same sums is accepted.
	var s Summary
	if err := readWhole(&s, groupsFrame(group(3, 9, 3, 5, 1e-17, 1.75))); err != nil {
		t.Fatal(err)
	}
}
