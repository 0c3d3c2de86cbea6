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

// Analysis is the live §IV analysis: every shard's partition summaries
// merged, one shard locked at a time, in O(shards × parts × groups)
// whatever the user count. It equals core.Analyze(e.Groupings()) for the
// same cut; Drain first for an exact one.
func (e *Engine) Analysis() core.Analysis {
	start := time.Now()
	var sum core.Summary
	for _, sh := range e.shards {
		sh.mu.Lock()
		for p := range sh.parts {
			sum.Merge(&sh.parts[p])
		}
		sh.mu.Unlock()
	}
	a := sum.Analysis()
	e.mSnapshotStage.ObserveDuration(time.Since(start))
	return a
}

// PartitionSummaries returns the §IV summary of every non-empty hash
// partition, PartitionOf over n > 0 partitions, merged across the shards:
// what a cluster worker serves its router. The first call with a new n
// re-buckets each shard's users once, in O(users); from then on every tweet
// keeps the n parts current and a call costs O(shards × n × groups).
// Shards are locked one at a time, as in Analysis.
func (e *Engine) PartitionSummaries(n int) map[int]*core.Summary {
	start := time.Now()
	out := make(map[int]*core.Summary)
	for _, sh := range e.shards {
		sh.mu.Lock()
		sh.repartition(n)
		for p := range sh.parts {
			if sh.parts[p].Empty() {
				continue
			}
			if out[p] == nil {
				out[p] = new(core.Summary)
			}
			out[p].Merge(&sh.parts[p])
		}
		sh.mu.Unlock()
	}
	e.mSnapshotStage.ObserveDuration(time.Since(start))
	return out
}

// Snapshot materialises the current per-user groupings and their §IV
// analysis: the full state in the batch pipeline's shape, for export and
// differential checks. Queries read Analysis instead.
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
		DistinctDistricts: len(st.places),
		Weight:            st.matchShare(),
	}, true
}

// GroupCounts is the cheap per-group view (no snapshot build): the user and
// tweet tallies of the partition summaries.
func (e *Engine) GroupCounts() (users, tweets [core.NumGroups]int) {
	for _, sh := range e.shards {
		sh.mu.Lock()
		for p := range sh.parts {
			u, t := sh.parts[p].Counts()
			for g := range users {
				users[g] += u[g]
				tweets[g] += t[g]
			}
		}
		sh.mu.Unlock()
	}
	return users, tweets
}
