package simnet

// Indexed election.
//
// The scheduler always runs the electable rank with the smallest
// (virtual time, rank) key: a runnable rank at its clock, or a rank
// blocked in RecvDeadline at its deadline. Finding that minimum with a
// linear scan over every rank costs O(P) per event, which dominates
// once P reaches the hundreds. Instead the election reads a lazy
// min-heap of election entries:
//
//   - Every transition that makes a rank electable (a yield, a wake, a
//     deadline park, the launch) pushes a fresh entry. Old entries are
//     not removed in place.
//   - The heap top is validated against the rank's *current* state
//     before use; a stale entry (the rank moved on, ran, or blocked) is
//     popped and discarded.
//
// Every electable rank always has an entry matching its current state,
// so the smallest valid entry is the true minimum. Each event pushes
// O(1) entries and each election pops the entries it invalidated, so
// the heap stays O(live candidates) and an election costs O(log P).

type electEntry struct {
	key     float64
	rank    int32
	timeout bool // entry is a RecvDeadline expiry, not a runnable key
}

// electPQ is a hand-rolled binary min-heap over (key, rank).
// container/heap is avoided: its interface indirection allocates and
// the push/pop pair sits on the admission fast path.
type electPQ []electEntry

func electLess(a, b electEntry) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.rank < b.rank
}

func (pq *electPQ) push(e electEntry) {
	h := append(*pq, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !electLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	*pq = h
}

func (pq *electPQ) pop() electEntry {
	h := *pq
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && electLess(h[l], h[small]) {
			small = l
		}
		if r < len(h) && electLess(h[r], h[small]) {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	*pq = h
	return top
}

// electKeyOf returns rank n's current election candidacy: its clock
// while runnable, its deadline while blocked in RecvDeadline, or
// ok=false when the rank is finished or blocked without a wake-up time.
func electKeyOf(n *Node) (electEntry, bool) {
	if n.done {
		return electEntry{}, false
	}
	switch n.blockKind {
	case blockNone:
		return electEntry{key: n.clock, rank: int32(n.Rank)}, true
	case blockRecvDeadline:
		return electEntry{key: n.deadline, rank: int32(n.Rank), timeout: true}, true
	}
	return electEntry{}, false
}

// pushElect publishes rank n's current candidacy to the election heap;
// a no-op when the rank is not electable.
func (c *cluster) pushElect(n *Node) {
	if e, ok := electKeyOf(n); ok {
		c.pq.push(e)
	}
}

// elect removes and returns the electable rank with the smallest
// (key, rank), discarding stale entries on the way, or nil when no rank
// is electable. A rank elected at its RecvDeadline deadline is woken
// with its timeout flag set; it advances its own clock.
func (c *cluster) elect() *Node {
	for {
		for len(c.pq) > 0 {
			e := c.pq.pop()
			n := c.nodes[e.rank]
			if cur, ok := electKeyOf(n); !ok || cur != e {
				continue
			}
			if e.timeout {
				n.blockKind = blockNone
				n.timedOut = true
			}
			return n
		}
		// An empty heap normally means deadlock; rebuild from a full
		// scan first so a missed push can degrade only performance,
		// never be misdiagnosed as one.
		if !c.rebuildElect() {
			return nil
		}
	}
}

// rebuildElect repopulates the heap from a full state scan and reports
// whether any candidate exists.
func (c *cluster) rebuildElect() bool {
	any := false
	for _, n := range c.nodes {
		if e, ok := electKeyOf(n); ok {
			c.pq.push(e)
			any = true
		}
	}
	return any
}
