package stream

import (
	"sort"
	"time"

	"stir/internal/core"
	"stir/internal/twitter"
)

// Snapshot is an on-demand materialisation of the live state in the batch
// pipeline's shape.
type Snapshot struct {
	// Groupings is the per-user method output, sorted by user ID — the same
	// order the batch pipeline emits.
	Groupings []core.UserGrouping
	// Analysis aggregates Groupings through core.Analyze, so a drained
	// engine's snapshot is byte-for-byte the batch result.
	Analysis core.Analysis
}

// Groupings collects every grouped user (≥1 geocoded tweet), sorted by ID.
// Shards are locked one at a time: each shard's view is consistent, the
// cross-shard cut is only as consistent as ingestion is quiet (Drain first
// for an exact cut).
func (e *Engine) Groupings() []core.UserGrouping {
	var out []core.UserGrouping
	for _, sh := range e.shards {
		sh.mu.Lock()
		for _, st := range sh.users {
			if st.total == 0 {
				continue
			}
			out = append(out, st.grouping())
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].UserID < out[j].UserID })
	return out
}

// Snapshot materialises the current per-user groupings and their §IV
// analysis.
func (e *Engine) Snapshot() Snapshot {
	start := time.Now()
	gs := e.Groupings()
	snap := Snapshot{Groupings: gs, Analysis: core.Analyze(gs)}
	e.mSnapshotStage.ObserveDuration(time.Since(start))
	return snap
}

// UserView is the live per-user answer: group, rank and reliability weight.
type UserView struct {
	UserID            int64  `json:"user_id"`
	Profile           string `json:"profile"`
	Group             string `json:"group"`
	Rank              int    `json:"rank"`
	MatchedTweets     int    `json:"matched_tweets"`
	TotalTweets       int    `json:"total_tweets"`
	DistinctDistricts int    `json:"distinct_districts"`
	// Weight is the smooth reliability weight (§V): the fraction of the
	// user's geo-tweets posted from the profile district.
	Weight float64 `json:"weight"`
}

// User returns the live view of one user; ok=false when the user is unknown
// or was rejected by profile refinement.
func (e *Engine) User(id twitter.UserID) (UserView, bool) {
	sh := e.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st, ok := sh.users[id]
	if !ok {
		return UserView{}, false
	}
	return UserView{
		UserID:            st.id,
		Profile:           st.profile.Key(),
		Group:             st.group.String(),
		Rank:              st.rank,
		MatchedTweets:     st.matchedTweets(),
		TotalTweets:       st.total,
		DistinctDistricts: len(st.nodes),
		Weight:            st.matchShare(),
	}, true
}

// GroupCounts is the cheap incremental per-group view (no snapshot build):
// user and tweet tallies maintained in O(1) per tweet.
func (e *Engine) GroupCounts() (users, tweets [core.NumGroups]int) {
	for _, sh := range e.shards {
		sh.mu.Lock()
		for g := 0; g < core.NumGroups; g++ {
			users[g] += sh.usersPerGroup[g]
			tweets[g] += sh.tweetsPerGroup[g]
		}
		sh.mu.Unlock()
	}
	return users, tweets
}
