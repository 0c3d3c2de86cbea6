package stream

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"stir/internal/core"
	"stir/internal/obs"
	"stir/internal/storage"
	"stir/internal/storage/vfs"
	"stir/internal/twitter"
)

// Checkpoint layout in the store:
//
//	stream/meta               the Ledger and the feeder cursor (JSON ckptMeta)
//	stream/user/<id>          one grouped user's multiset (JSON userRec)
//	stream/rejected/<id>      profile-refinement rejection marker
//
// A checkpoint is one storage batch — the store's batch record is atomic
// across a crash, so resume sees either the whole checkpoint or none of it.
// Only users dirtied since the previous checkpoint are rewritten; the cut is
// "everything ingested before Checkpoint() was called" (a drain barrier runs
// first), so a resumed engine fed the post-checkpoint suffix reproduces the
// batch result exactly.

const (
	ckptMetaKey       = "stream/meta"
	ckptUserPrefix    = "stream/user/"
	ckptRejectPrefix  = "stream/rejected/"
	ckptFormatVersion = 1
)

// isDiskFull classifies a checkpoint failure as disk exhaustion — the
// store's typed read-only degradation or a raw ENOSPC that slipped through.
// These defer the checkpoint (state is intact in memory, the cursor just
// does not advance); anything else is a real error.
func isDiskFull(err error) bool {
	return errors.Is(err, storage.ErrReadOnly) || vfs.IsNoSpace(err)
}

// ckptMeta is the engine-level checkpoint record.
type ckptMeta struct {
	Version  int    `json:"version"`
	Counters Ledger `json:"counters"`
	// Cursor is the feeder's opaque source position covered by this
	// checkpoint (see Engine.SetCursor). Absent on pre-cluster checkpoints,
	// which simply means "replay from the beginning".
	Cursor string `json:"cursor,omitempty"`
}

// placeCount is one merged string on disk.
type placeCount struct {
	State  string `json:"s"`
	County string `json:"c"`
	N      int    `json:"n"`
}

// userRec is one user's persisted multiset, its places in batch order; rank
// and group are rebuilt on load.
type userRec struct {
	ID            int64        `json:"id"`
	ProfileState  string       `json:"ps"`
	ProfileCounty string       `json:"pc"`
	LastID        int64        `json:"last_id,omitempty"`
	Places        []placeCount `json:"places"`
}

func encodeUserState(st *userState) ([]byte, error) {
	rec := userRec{
		ID:            st.id,
		ProfileState:  st.profile.State,
		ProfileCounty: st.profile.County,
		LastID:        st.lastID,
		Places:        make([]placeCount, len(st.places)),
	}
	for i, t := range st.places {
		rec.Places[i] = placeCount{State: t.place.State, County: t.place.County, N: t.count}
	}
	return json.Marshal(rec)
}

// decodeUserState rebuilds the live state: collect every place with its
// multiplicity, sort once into batch order (a record's own order is not
// trusted), then rank the matched string.
func decodeUserState(b []byte) (*userState, error) {
	var rec userRec
	if err := json.Unmarshal(b, &rec); err != nil {
		return nil, fmt.Errorf("stream: decode checkpoint user: %w", err)
	}
	st := &userState{
		id:      rec.ID,
		profile: core.Place{State: rec.ProfileState, County: rec.ProfileCounty},
		places:  make([]tally, 0, len(rec.Places)),
		lastID:  rec.LastID,
	}
	seen := make(map[core.Place]bool, len(rec.Places))
	for _, pc := range rec.Places {
		if pc.N <= 0 {
			return nil, fmt.Errorf("stream: checkpoint user %d: non-positive count %d", rec.ID, pc.N)
		}
		if pc.N > math.MaxInt-st.total {
			return nil, fmt.Errorf("stream: checkpoint user %d: tweet total overflows", rec.ID)
		}
		p := core.Place{State: pc.State, County: pc.County}
		if seen[p] {
			return nil, fmt.Errorf("stream: checkpoint user %d: duplicate place %q", rec.ID, p.Key())
		}
		seen[p] = true
		st.places = append(st.places, tally{place: p, key: p.Key(), count: pc.N})
		st.total += pc.N
	}
	// Stable, so a record already in batch order keeps it even where two
	// places share a key.
	sort.SliceStable(st.places, func(i, j int) bool {
		a, b := st.places[i], st.places[j]
		return beforeCK(a.count, a.key, b.count, b.key)
	})
	for i, t := range st.places {
		if t.place == st.profile {
			st.rank = i + 1
			break
		}
	}
	st.group = core.GroupOfRank(st.rank)
	return st, nil
}

// Checkpoint drains in-flight tweets and commits all state changed since the
// last checkpoint as one atomic batch. Requires Config.Store.
func (e *Engine) Checkpoint() error {
	if e.cfg.Store == nil {
		return fmt.Errorf("stream: no checkpoint store configured")
	}
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	start := time.Now()
	defer func() { e.mCheckpointStage.ObserveDuration(time.Since(start)) }()
	_, dspan := e.cfg.Trace.Root(context.Background(), "stream.checkpoint")
	defer dspan.End()
	e.Drain()

	batch := e.cfg.Store.NewBatch()
	var meta ckptMeta
	meta.Version = ckptFormatVersion
	meta.Counters = e.restored
	// The cursor is read after the drain: every tweet it covers has been
	// applied, so the checkpoint's state is at or past the position. A batch
	// stamped between the drain and here only widens the overlap, which the
	// feeder's replay dedup absorbs.
	meta.Cursor = e.Cursor()
	// Serialise dirty users under each shard's lock, clearing dirtiness
	// optimistically; a failed commit restores the marks so nothing is lost.
	type taken struct {
		sh  *shard
		ids []twitter.UserID
	}
	var takenSets []taken
	restoreDirty := func() {
		for _, t := range takenSets {
			t.sh.mu.Lock()
			for _, id := range t.ids {
				t.sh.dirty[id] = true
			}
			t.sh.mu.Unlock()
		}
	}
	for _, sh := range e.shards {
		sh.mu.Lock()
		ids := make([]twitter.UserID, 0, len(sh.dirty))
		for id := range sh.dirty {
			ids = append(ids, id)
			if st := sh.users[id]; st != nil {
				b, err := encodeUserState(st)
				if err != nil {
					sh.mu.Unlock()
					restoreDirty()
					return err
				}
				batch.Put(ckptUserPrefix+strconv.FormatInt(int64(id), 10), b)
			} else if sh.rejected[id] {
				batch.Put(ckptRejectPrefix+strconv.FormatInt(int64(id), 10), []byte("1"))
			} else {
				// Dirty but gone: the user was handed off to another worker
				// (DropUsers). Remove both possible keys so a resume does not
				// resurrect state this engine no longer owns.
				batch.Delete(ckptUserPrefix + strconv.FormatInt(int64(id), 10))
				batch.Delete(ckptRejectPrefix + strconv.FormatInt(int64(id), 10))
			}
			delete(sh.dirty, id)
		}
		meta.Counters.Add(sh.ledger())
		sh.mu.Unlock()
		takenSets = append(takenSets, taken{sh: sh, ids: ids})
	}
	mb, err := json.Marshal(meta)
	if err != nil {
		restoreDirty()
		return err
	}
	batch.Put(ckptMetaKey, mb)
	if err := batch.Commit(); err != nil {
		restoreDirty()
		if isDiskFull(err) {
			e.noteDeferred()
		}
		dspan.Annotate("error", err.Error())
		return fmt.Errorf("stream: checkpoint commit: %w", err)
	}
	if err := e.cfg.Store.Sync(); err != nil {
		// The batch record is in the log but not durable: dirtiness stays
		// cleared (a surviving record is simply adopted on reboot), but the
		// cursor must not advance — a crash now replays from the previous
		// checkpoint and dedup absorbs the overlap.
		if isDiskFull(err) {
			e.noteDeferred()
		}
		dspan.Annotate("error", err.Error())
		return fmt.Errorf("stream: checkpoint sync: %w", err)
	}
	e.ckptStalled.Store(false)
	e.curMu.Lock()
	e.durableCursor = meta.Cursor
	e.curMu.Unlock()
	e.checkpoints.Add(1)
	e.reg.Histogram("stream_checkpoint_seconds", obs.DefBuckets).ObserveDuration(time.Since(start))
	if dspan != nil {
		dirty := 0
		for _, t := range takenSets {
			dirty += len(t.ids)
		}
		st := e.cfg.Store.Stats()
		dspan.AnnotateInt("dirty_users", int64(dirty))
		dspan.AnnotateInt("store.live_keys", int64(st.LiveKeys))
		dspan.AnnotateInt("store.segments", int64(st.Segments))
		dspan.AnnotateInt("store.dead_records", int64(st.DeadRecords))
	}
	return nil
}

// loadCheckpoint rebuilds shard state from the store (called by New, before
// the workers start, so no locking is needed).
//
// A salvaged store can be missing records or carry a damaged one that still
// parsed (a scrubbed log never hands back bytes with a bad CRC, but a record
// written by a buggy writer can decode and fail validation). Dropping one
// user's state only costs a re-crawl of that user, while refusing to start
// costs the whole pipeline — so per-record failures are skipped and counted
// in stream_checkpoint_salvage_dropped_total rather than returned. Only a
// version mismatch stays fatal: that is a config problem, not damage.
func (e *Engine) loadCheckpoint() error {
	store := e.cfg.Store
	dropped := e.reg.Counter("stream_checkpoint_salvage_dropped_total")
	if b, err := store.Get(ckptMetaKey); err == nil {
		var meta ckptMeta
		if err := json.Unmarshal(b, &meta); err != nil {
			// Counters restart from zero; the per-user state is unaffected.
			dropped.Inc()
		} else {
			if meta.Version != ckptFormatVersion {
				return fmt.Errorf("stream: unsupported checkpoint version %d", meta.Version)
			}
			e.restored = meta.Counters
			e.cursor = meta.Cursor
			e.durableCursor = meta.Cursor
		}
	}
	for _, key := range store.KeysWithPrefix(ckptUserPrefix) {
		idStr := strings.TrimPrefix(key, ckptUserPrefix)
		id, err := strconv.ParseInt(idStr, 10, 64)
		if err != nil {
			dropped.Inc()
			continue
		}
		b, err := store.Get(key)
		if err != nil {
			dropped.Inc()
			continue
		}
		sh := e.shardOf(twitter.UserID(id))
		st, err := decodeUserState(b)
		if err != nil {
			dropped.Inc()
			continue
		}
		sh.users[twitter.UserID(id)] = st
		sh.retally(twitter.UserID(id), core.UserTerm{}, st.term())
	}
	for _, key := range store.KeysWithPrefix(ckptRejectPrefix) {
		idStr := strings.TrimPrefix(key, ckptRejectPrefix)
		id, err := strconv.ParseInt(idStr, 10, 64)
		if err != nil {
			dropped.Inc()
			continue
		}
		e.shardOf(twitter.UserID(id)).rejected[twitter.UserID(id)] = true
	}
	return nil
}
