package stream

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"stir/internal/core"
)

// somePlaces builds a small pool of distinct districts.
func somePlaces(n int) []core.Place {
	out := make([]core.Place, n)
	for i := range out {
		out[i] = core.Place{State: fmt.Sprintf("S%d", i%5), County: fmt.Sprintf("C%02d", i)}
	}
	return out
}

// TestObserveMatchesBatchGrouping drives tweet sequences through userState
// and checks, after every single tweet, that grouping() equals
// core.BuildUserGrouping over the prefix applied so far — the incremental
// update must never drift from the batch rebuild. The 227-place cases (the
// Korean gazetteer's district count) tweet in shuffled passes over every
// place, so counts move in long equal-count runs and an increment can carry
// an entry across the whole list.
func TestObserveMatchesBatchGrouping(t *testing.T) {
	wide := somePlaces(227)
	cases := []struct {
		name    string
		places  []core.Place
		trials  int
		tweets  func(*rand.Rand, []core.Place) []core.Place
		profile func(*rand.Rand, []core.Place) core.Place
	}{
		{
			name: "random/12", places: somePlaces(12), trials: 50,
			tweets: func(rnd *rand.Rand, places []core.Place) []core.Place {
				out := make([]core.Place, 60)
				for i := range out {
					out[i] = places[rnd.Intn(len(places))]
				}
				return out
			},
			profile: func(rnd *rand.Rand, places []core.Place) core.Place { return places[rnd.Intn(len(places))] },
		},
		{
			name: "runs/227/profile-present", places: wide, trials: 3,
			tweets:  passes,
			profile: func(rnd *rand.Rand, places []core.Place) core.Place { return places[rnd.Intn(len(places))] },
		},
		{
			name: "runs/227/profile-absent", places: wide, trials: 3,
			tweets:  passes,
			profile: func(*rand.Rand, []core.Place) core.Place { return core.Place{State: "Elsewhere", County: "Nowhere"} },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rnd := rand.New(rand.NewSource(7))
			for trial := 0; trial < tc.trials; trial++ {
				profile := tc.profile(rnd, tc.places)
				st := newUserState(int64(trial), profile)
				tweets := tc.tweets(rnd, tc.places)
				for i, p := range tweets {
					st.observe(p)
					want := core.BuildUserGrouping(int64(trial), profile, tweets[:i+1])
					if got := st.grouping(); !reflect.DeepEqual(got, want) {
						t.Fatalf("trial %d after %d tweets:\ngot  %+v\nwant %+v", trial, i+1, got, want)
					}
				}
			}
		})
	}
}

// passes tweets from every place once per pass, in a fresh shuffled order
// each time, with a few random repeats between passes so the runs do not
// stay perfectly level.
func passes(rnd *rand.Rand, places []core.Place) []core.Place {
	var out []core.Place
	for pass := 0; pass < 3; pass++ {
		for _, i := range rnd.Perm(len(places)) {
			out = append(out, places[i])
		}
		for r := 0; r < 5; r++ {
			out = append(out, places[rnd.Intn(len(places))])
		}
	}
	return out
}

// TestObserveNeverMatched covers the None group: a profile district the user
// never tweets from keeps rank 0 at every step.
func TestObserveNeverMatched(t *testing.T) {
	places := somePlaces(4)
	st := newUserState(1, core.Place{State: "Elsewhere", County: "Nowhere"})
	for i := 0; i < 20; i++ {
		st.observe(places[i%len(places)])
		if st.rank != 0 || st.group != core.None {
			t.Fatalf("step %d: rank=%d group=%v, want 0/None", i, st.rank, st.group)
		}
	}
	if st.matchedTweets() != 0 || st.matchShare() != 0 {
		t.Fatalf("matched=%d share=%v, want zeros", st.matchedTweets(), st.matchShare())
	}
}

// TestEncodeUserStateGolden pins the checkpoint and handoff wire form of one
// user: the bytes must not move when the in-memory state changes shape.
func TestEncodeUserStateGolden(t *testing.T) {
	places := somePlaces(6)
	st := newUserState(4242, places[2])
	for _, i := range []int{3, 1, 2, 3, 0, 2, 5, 3, 4, 1, 2, 0, 5, 4, 4} {
		st.observe(places[i])
	}
	st.lastID = 987654321
	got, err := encodeUserState(st)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"id":4242,"ps":"S2","pc":"C02","last_id":987654321,"places":[` +
		`{"s":"S2","c":"C02","n":3},{"s":"S3","c":"C03","n":3},{"s":"S4","c":"C04","n":3},` +
		`{"s":"S0","c":"C00","n":2},{"s":"S0","c":"C05","n":2},{"s":"S1","c":"C01","n":2}]}`
	if string(got) != want {
		t.Fatalf("encoding moved:\ngot  %s\nwant %s", got, want)
	}
	if st.rank != 1 || st.group != core.Top1 {
		t.Fatalf("rank=%d group=%v, want 1/Top-1", st.rank, st.group)
	}
}

// TestCheckpointRoundTrip encodes a user and decodes them back identically.
func TestCheckpointRoundTrip(t *testing.T) {
	places := somePlaces(9)
	profile := places[2]
	st := newUserState(42, profile)
	rnd := rand.New(rand.NewSource(13))
	for i := 0; i < 200; i++ {
		st.observe(places[rnd.Intn(len(places))])
	}
	st.lastID = 777
	b, err := encodeUserState(st)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeUserState(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.lastID != 777 {
		t.Fatalf("lastID = %d, want 777", got.lastID)
	}
	if !reflect.DeepEqual(got.grouping(), st.grouping()) {
		t.Fatalf("round-trip grouping differs:\ngot  %+v\nwant %+v", got.grouping(), st.grouping())
	}
}

// TestDecodeUserStateRejectsCorruption covers the checkpoint validation.
func TestDecodeUserStateRejectsCorruption(t *testing.T) {
	if _, err := decodeUserState([]byte("{")); err == nil {
		t.Fatal("want error for truncated JSON")
	}
	bad := []byte(`{"id":1,"ps":"A","pc":"B","places":[{"s":"A","c":"B","n":0}]}`)
	if _, err := decodeUserState(bad); err == nil {
		t.Fatal("want error for non-positive count")
	}
	dup := []byte(`{"id":1,"ps":"A","pc":"B","places":[{"s":"A","c":"B","n":1},{"s":"A","c":"B","n":2}]}`)
	if _, err := decodeUserState(dup); err == nil {
		t.Fatal("want error for duplicate place")
	}
	overflow := []byte(`{"id":1,"ps":"A","pc":"B","places":[{"s":"A","c":"B","n":9223372036854775807},{"s":"A","c":"C","n":9223372036854775807}]}`)
	if _, err := decodeUserState(overflow); err == nil {
		t.Fatal("want error for a tweet total that overflows int")
	}
}

// TestDecodeUserStateReordersPlaces feeds a record whose places are listed
// in key order, not batch order: decode must sort them itself and rank the
// profile by count.
func TestDecodeUserStateReordersPlaces(t *testing.T) {
	rec := []byte(`{"id":7,"ps":"S1","pc":"C1","places":[` +
		`{"s":"S0","c":"C0","n":1},{"s":"S1","c":"C1","n":2},{"s":"S2","c":"C2","n":5},{"s":"S3","c":"C3","n":2}]}`)
	st, err := decodeUserState(rec)
	if err != nil {
		t.Fatal(err)
	}
	profile := core.Place{State: "S1", County: "C1"}
	var tweets []core.Place
	for _, p := range []struct {
		place core.Place
		n     int
	}{{core.Place{State: "S0", County: "C0"}, 1}, {profile, 2}, {core.Place{State: "S2", County: "C2"}, 5}, {core.Place{State: "S3", County: "C3"}, 2}} {
		for i := 0; i < p.n; i++ {
			tweets = append(tweets, p.place)
		}
	}
	want := core.BuildUserGrouping(7, profile, tweets)
	if got := st.grouping(); !reflect.DeepEqual(got, want) {
		t.Fatalf("grouping:\ngot  %+v\nwant %+v", got, want)
	}
	if st.rank != 2 || st.group != core.Top2 {
		t.Fatalf("rank=%d group=%v, want 2/Top-2", st.rank, st.group)
	}
}

// FuzzDecodeUserState fuzzes the checkpoint and handoff user record. Three
// properties: no input panics; an accepted record re-encodes to bytes that
// decode to the same state (and re-encode to the same bytes); and when the
// tweet total is small, grouping() equals core.BuildUserGrouping over the
// record's places expanded by count. Places whose keys collide (a '#'
// inside a name) have no defined batch order, so the last property skips
// them. Seeds live in testdata/fuzz/FuzzDecodeUserState.
func FuzzDecodeUserState(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 8192 {
			t.Skip()
		}
		st, err := decodeUserState(data)
		if err != nil {
			return
		}
		b1, err := encodeUserState(st)
		if err != nil {
			t.Fatalf("encode accepted record: %v", err)
		}
		st2, err := decodeUserState(b1)
		if err != nil {
			t.Fatalf("own encoding %s rejected: %v", b1, err)
		}
		if !reflect.DeepEqual(st, st2) {
			t.Fatalf("round trip moved the state:\n once  %+v\n twice %+v", st, st2)
		}
		if b2, _ := encodeUserState(st2); !bytes.Equal(b1, b2) {
			t.Fatalf("not a fixed point:\n once  %s\n twice %s", b1, b2)
		}
		if st.total > 10_000 {
			return
		}
		var rec userRec
		if err := json.Unmarshal(data, &rec); err != nil {
			t.Fatalf("decoder accepted what json rejects: %v", err)
		}
		keys := make(map[string]bool, len(rec.Places))
		var tweets []core.Place
		for _, pc := range rec.Places {
			p := core.Place{State: pc.State, County: pc.County}
			if keys[p.Key()] {
				return
			}
			keys[p.Key()] = true
			for i := 0; i < pc.N; i++ {
				tweets = append(tweets, p)
			}
		}
		profile := core.Place{State: rec.ProfileState, County: rec.ProfileCounty}
		want := core.BuildUserGrouping(rec.ID, profile, tweets)
		if got := st.grouping(); !reflect.DeepEqual(got, want) {
			t.Fatalf("grouping of %s:\ngot  %+v\nwant %+v", data, got, want)
		}
	})
}
