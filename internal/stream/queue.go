package stream

import (
	"sync"

	"stir/internal/twitter"
)

// shardMsg is one queue element: a tweet, or a barrier the worker closes
// when it reaches it (FIFO makes that a drain point).
type shardMsg struct {
	tweet   *twitter.Tweet
	barrier chan struct{}
}

// pushResult is what queue.push did with a message.
type pushResult uint8

const (
	pushed pushResult = iota
	pushFull
	pushClosed
)

// queue is a shard's bounded FIFO from producers (Ingest, Drain) to its one
// worker. A producer appends under mu and wakes the worker only when the
// queue goes from empty to non-empty; the worker takes every pending
// message in one lock round trip and hands back the slice it finished
// with, so the two slices alternate and the steady state allocates
// nothing. At most limit messages wait in the queue; the batch the worker
// holds is outside that bound.
type queue struct {
	mu       sync.Mutex
	items    []shardMsg
	limit    int
	closed   bool
	nonEmpty sync.Cond // the worker waits here for items or close
	notFull  sync.Cond // producers wait here for room or close
}

func newQueue(limit int) *queue {
	q := &queue{items: make([]shardMsg, 0, limit), limit: limit}
	q.nonEmpty.L = &q.mu
	q.notFull.L = &q.mu
	return q
}

// push appends m. A full queue sheds it (wait false) or waits for the
// worker to take a batch; a closed queue refuses it.
func (q *queue) push(m shardMsg, wait bool) pushResult {
	q.mu.Lock()
	for !q.closed && len(q.items) >= q.limit {
		if !wait {
			q.mu.Unlock()
			return pushFull
		}
		q.notFull.Wait()
	}
	if q.closed {
		q.mu.Unlock()
		return pushClosed
	}
	q.items = append(q.items, m)
	wake := len(q.items) == 1
	q.mu.Unlock()
	if wake {
		q.nonEmpty.Signal()
	}
	return pushed
}

// take waits for pending messages and returns them all, keeping spent (the
// previous batch, already applied) as the next pending slice. ok is false
// once the queue is closed and empty: every accepted message has been
// taken.
func (q *queue) take(spent []shardMsg) (batch []shardMsg, ok bool) {
	clear(spent) // drop the applied tweets for the collector
	q.mu.Lock()
	for len(q.items) == 0 {
		if q.closed {
			q.mu.Unlock()
			return nil, false
		}
		q.nonEmpty.Wait()
	}
	batch = q.items
	q.items = spent[:0]
	full := len(batch) >= q.limit
	q.mu.Unlock()
	if full {
		q.notFull.Broadcast()
	}
	return batch, true
}

// close refuses every later push and wakes everyone waiting; messages
// already queued are still taken.
func (q *queue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.nonEmpty.Broadcast()
	q.notFull.Broadcast()
}

// len is the number of messages waiting, the batch in hand excluded.
func (q *queue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}
