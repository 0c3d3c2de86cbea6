package cluster

// MembersView is the admin membership answer: each worker's health state
// next to the forwarding/journal cursors the operator needs to judge it
// ("suspect with a deep journal and a stale cursor" reads very differently
// from "suspect, journal empty, cursor current"), and the partitions it owns.
type MembersView struct {
	Epoch      int64        `json:"epoch"`
	Partitions int          `json:"partitions"`
	Replicas   int          `json:"replicas"`
	Members    []MemberView `json:"members"`
}

// MemberView is one worker's membership row. Health is its state: alive,
// degraded (a disk-degraded checkpoint store: reads only, forwards defer to
// the journal), suspect or down.
type MemberView struct {
	Name           string `json:"name"`
	URL            string `json:"url"`
	Health         string `json:"health"`
	LastOK         string `json:"last_ok"`
	LastErr        string `json:"last_err,omitempty"`
	DurableSeq     int64  `json:"durable_seq"`
	AckedSeq       int64  `json:"acked_seq"`
	JournalDepth   int    `json:"journal_depth"`
	JournalEvicted int64  `json:"journal_evicted"`
	Partitions     []int  `json:"partitions"`
}

// Members reports every worker's membership row, in ring order.
func (r *Router) Members() MembersView {
	r.mu.RLock()
	defer r.mu.RUnlock()
	v := MembersView{Epoch: r.epoch.Load(), Partitions: r.opts.Partitions, Replicas: r.opts.Replicas}
	for _, name := range r.ring.Workers() {
		w := r.workers[name]
		if w == nil {
			continue
		}
		w.mu.Lock()
		url, h := w.url, w.health
		w.mu.Unlock()
		w.jMu.Lock()
		depth, durable, acked, evicted := len(w.journal), w.durableSeq, w.ackedSeq, w.evicted
		w.jMu.Unlock()
		v.Members = append(v.Members, MemberView{
			Name:           name,
			URL:            url,
			Health:         h.state.String(),
			LastOK:         h.lastOK.UTC().Format("2006-01-02T15:04:05.000Z07:00"),
			LastErr:        h.lastErr,
			DurableSeq:     durable,
			AckedSeq:       acked,
			JournalDepth:   depth,
			JournalEvicted: evicted,
			Partitions:     r.ring.PartsOwnedBy(name, r.opts.Replicas),
		})
	}
	return v
}
