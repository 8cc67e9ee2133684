package sat

// varHeap is a binary max-heap over variables ordered by VSIDS activity.
// It indexes positions per variable so activity bumps can sift in place.
type varHeap struct {
	activity *[]float64 // shared with the solver; grows as vars are added
	heap     []Var
	indices  []int32 // position of each var in heap, -1 if absent
}

func newVarHeap(act *[]float64) *varHeap {
	return &varHeap{activity: act}
}

// reset empties the heap, keeping both arrays' capacity.
func (h *varHeap) reset() {
	h.heap = h.heap[:0]
	h.indices = h.indices[:0]
}

func (h *varHeap) act(v Var) float64 { return (*h.activity)[v] }

func (h *varHeap) empty() bool { return len(h.heap) == 0 }

func (h *varHeap) inHeap(v Var) bool {
	return int(v) < len(h.indices) && h.indices[v] >= 0
}

// insert adds v to the heap if not already present.
func (h *varHeap) insert(v Var) {
	for int(v) >= len(h.indices) {
		h.indices = append(h.indices, -1)
	}
	if h.indices[v] >= 0 {
		return
	}
	h.indices[v] = int32(len(h.heap))
	h.heap = append(h.heap, v)
	h.siftUp(int(h.indices[v]))
}

// update restores heap order after v's activity increased.
func (h *varHeap) update(v Var) {
	if h.inHeap(v) {
		h.siftUp(int(h.indices[v]))
	}
}

// removeMax pops the highest-activity variable.
func (h *varHeap) removeMax() Var {
	top := h.heap[0]
	last := h.heap[len(h.heap)-1]
	h.heap = h.heap[:len(h.heap)-1]
	h.indices[top] = -1
	if len(h.heap) > 0 {
		h.heap[0] = last
		h.indices[last] = 0
		h.siftDown(0)
	}
	return top
}

func (h *varHeap) siftUp(i int) {
	v := h.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		p := h.heap[parent]
		if h.act(v) <= h.act(p) {
			break
		}
		h.heap[i] = p
		h.indices[p] = int32(i)
		i = parent
	}
	h.heap[i] = v
	h.indices[v] = int32(i)
}

func (h *varHeap) siftDown(i int) {
	v := h.heap[i]
	n := len(h.heap)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if child+1 < n && h.act(h.heap[child+1]) > h.act(h.heap[child]) {
			child++
		}
		c := h.heap[child]
		if h.act(c) <= h.act(v) {
			break
		}
		h.heap[i] = c
		h.indices[c] = int32(i)
		i = child
	}
	h.heap[i] = v
	h.indices[v] = int32(i)
}
