package stream

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"stir/internal/core"
	"stir/internal/storage"
	"stir/internal/twitter"
)

// Shard handoff: when the cluster router moves a set of users between
// workers (a worker joining, leaving, or being replaced after a crash), the
// state travels in the same encoding the checkpoint uses — one userRec per
// grouped user plus the rejection markers. ExportUsers/ImportUsers are the
// live HTTP path; ReadCheckpointHandoff lifts the same payload straight out
// of a dead worker's checkpoint store.

// Handoff is the wire form of a set of users' grouping state.
type Handoff struct {
	// Users holds one checkpoint-encoded userRec per grouped user.
	Users []json.RawMessage `json:"users,omitempty"`
	// Rejected lists users permanently filtered out by profile refinement.
	Rejected []int64 `json:"rejected,omitempty"`
}

// Len reports how many users (grouped + rejected) the handoff carries.
func (h Handoff) Len() int { return len(h.Users) + len(h.Rejected) }

// ExportUsers drains in-flight tweets and serialises every user keep()
// selects — grouped state and rejection markers both. The exported users
// stay live in this engine; pair with DropUsers once the importer has
// committed them.
func (e *Engine) ExportUsers(keep func(twitter.UserID) bool) (Handoff, error) {
	e.Drain()
	var h Handoff
	for _, sh := range e.shards {
		sh.mu.Lock()
		for id, st := range sh.users {
			if !keep(id) {
				continue
			}
			b, err := encodeUserState(st)
			if err != nil {
				sh.mu.Unlock()
				return Handoff{}, fmt.Errorf("stream: export user %d: %w", id, err)
			}
			h.Users = append(h.Users, b)
		}
		for id := range sh.rejected {
			if keep(id) {
				h.Rejected = append(h.Rejected, int64(id))
			}
		}
		sh.mu.Unlock()
	}
	// Deterministic wire order, so identical exports are byte-identical.
	sort.Slice(h.Users, func(i, j int) bool { return string(h.Users[i]) < string(h.Users[j]) })
	sort.Slice(h.Rejected, func(i, j int) bool { return h.Rejected[i] < h.Rejected[j] })
	return h, nil
}

// ImportUsers installs a handoff payload into this engine: every record is
// decoded first (a malformed payload imports nothing), then installed under
// the owning shard's lock and marked dirty so the next checkpoint persists
// it. An already-present user is replaced — the exporter's copy is at least
// as new, and a retried handoff must be idempotent.
func (e *Engine) ImportUsers(h Handoff) error {
	states := make([]*userState, 0, len(h.Users))
	for _, raw := range h.Users {
		st, err := decodeUserState(raw)
		if err != nil {
			return fmt.Errorf("stream: import: %w", err)
		}
		states = append(states, st)
	}
	for _, st := range states {
		id := twitter.UserID(st.id)
		sh := e.shardOf(id)
		sh.mu.Lock()
		var old core.UserTerm
		if prev := sh.users[id]; prev != nil {
			old = prev.term()
		}
		sh.users[id] = st
		sh.retally(id, old, st.term())
		sh.dirty[id] = true
		sh.mu.Unlock()
	}
	for _, id := range h.Rejected {
		sh := e.shardOf(twitter.UserID(id))
		sh.mu.Lock()
		sh.rejected[twitter.UserID(id)] = true
		sh.dirty[twitter.UserID(id)] = true
		sh.mu.Unlock()
	}
	e.reg.Counter("stream_handoff_imported_total").Add(int64(h.Len()))
	return nil
}

// DropUsers removes every user drop() selects — the tail of a handoff: the
// importer owns them now. Removed users are marked dirty, so the next
// checkpoint deletes their keys from the store. Returns how many grouped and
// rejected users were dropped.
func (e *Engine) DropUsers(drop func(twitter.UserID) bool) (users, rejected int) {
	e.Drain()
	for _, sh := range e.shards {
		sh.mu.Lock()
		for id, st := range sh.users {
			if !drop(id) {
				continue
			}
			sh.retally(id, st.term(), core.UserTerm{})
			delete(sh.users, id)
			sh.dirty[id] = true
			users++
		}
		for id := range sh.rejected {
			if !drop(id) {
				continue
			}
			delete(sh.rejected, id)
			sh.dirty[id] = true
			rejected++
		}
		sh.mu.Unlock()
	}
	e.reg.Counter("stream_handoff_dropped_total").Add(int64(users + rejected))
	return users, rejected
}

// ReadCheckpointHandoff lifts a full handoff payload plus the durable replay
// cursor straight out of a checkpoint store — the recovery path for a worker
// that died without a chance to export: whoever inherits its shards restores
// from its last checkpoint and replays forward from the cursor.
func ReadCheckpointHandoff(store *storage.Store) (Handoff, string, error) {
	var h Handoff
	cursor := ""
	if b, err := store.Get(ckptMetaKey); err == nil {
		var meta ckptMeta
		if err := json.Unmarshal(b, &meta); err == nil {
			if meta.Version != ckptFormatVersion {
				return Handoff{}, "", fmt.Errorf("stream: unsupported checkpoint version %d", meta.Version)
			}
			cursor = meta.Cursor
		}
	}
	for _, key := range store.KeysWithPrefix(ckptUserPrefix) {
		b, err := store.Get(key)
		if err != nil {
			continue // salvage semantics match loadCheckpoint: skip the damaged record
		}
		h.Users = append(h.Users, json.RawMessage(b))
	}
	for _, key := range store.KeysWithPrefix(ckptRejectPrefix) {
		id, err := strconv.ParseInt(strings.TrimPrefix(key, ckptRejectPrefix), 10, 64)
		if err != nil {
			continue
		}
		h.Rejected = append(h.Rejected, id)
	}
	sort.Slice(h.Users, func(i, j int) bool { return string(h.Users[i]) < string(h.Users[j]) })
	sort.Slice(h.Rejected, func(i, j int) bool { return h.Rejected[i] < h.Rejected[j] })
	return h, cursor, nil
}
