package engine

// arrivalHeap is a binary min-heap of node ids keyed by the Created
// cycle of each node's prefetched pending message. It lets the
// admission phase pop exactly the arrivals that are due instead of
// scanning every node every cycle, and gives the idle-cycle skipper
// the earliest future event in O(1). A node appears at most once (one
// prefetched message per node); capacity is reserved up front so heap
// operations never allocate on the Step path.
type arrivalHeap struct {
	nodes []int32
	keys  []int64
}

// reserve makes room for n entries, keeping the backing arrays when
// they are large enough.
func (h *arrivalHeap) reserve(n int) {
	if cap(h.nodes) < n {
		h.nodes = make([]int32, 0, n)
		h.keys = make([]int64, 0, n)
	}
}

func (h *arrivalHeap) len() int { return len(h.nodes) }

// min returns the node with the earliest pending arrival and its
// Created cycle. It must not be called on an empty heap.
func (h *arrivalHeap) min() (node int, created int64) {
	return int(h.nodes[0]), h.keys[0]
}

// push adds a node keyed by the Created cycle of its pending message.
func (h *arrivalHeap) push(node int, key int64) {
	h.nodes = append(h.nodes, int32(node))
	h.keys = append(h.keys, key)
	i := len(h.nodes) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.keys[p] <= h.keys[i] {
			break
		}
		h.swap(i, p)
		i = p
	}
}

// pop removes the minimum entry.
func (h *arrivalHeap) pop() {
	n := len(h.nodes) - 1
	h.swap(0, n)
	h.nodes = h.nodes[:n]
	h.keys = h.keys[:n]
	h.siftDown(0)
}

func (h *arrivalHeap) siftDown(i int) {
	n := len(h.nodes)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h.keys[r] < h.keys[l] {
			m = r
		}
		if h.keys[i] <= h.keys[m] {
			return
		}
		h.swap(i, m)
		i = m
	}
}

func (h *arrivalHeap) swap(a, b int) {
	h.nodes[a], h.nodes[b] = h.nodes[b], h.nodes[a]
	h.keys[a], h.keys[b] = h.keys[b], h.keys[a]
}
