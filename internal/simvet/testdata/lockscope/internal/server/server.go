// Package server exercises every lockscope rule: direct channel ops
// and interface I/O under a lock, an interface method annotated
// //simvet:blocking, a cross-package blocking call resolved through
// facts, the defaulted-select exemption, goroutine
// and closure scoping, and the //simvet:blockok escape hatch.
package server

import (
	"io"
	"sync"

	"lockfix/internal/simrun"
)

// Hub is the fixture's shared state.
type Hub struct {
	mu  sync.Mutex
	out io.Writer
	ch  chan int
}

// SendLocked sends on a channel inside the critical section.
func (h *Hub) SendLocked(v int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.ch <- v // want `blocking operation \(channel send\) in SendLocked while holding h.mu`
}

// FlushLocked calls into simrun while locked; the callee's blocking
// fact crosses the package boundary.
func (h *Hub) FlushLocked(path string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	simrun.Flush(path, nil) // want `blocking operation \(calls Flush, which os.WriteFile disk write\) in FlushLocked while holding h.mu`
}

// PeekLocked reads a file on a bare descriptor through simrun while
// locked; raw syscalls are disk I/O too, and the fact says so.
func (h *Hub) PeekLocked(path string, buf []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	simrun.Peek(path, buf) // want `blocking operation \(calls Peek, which syscall.Open disk open\) in PeekLocked while holding h.mu`
}

// WriteUnlocked releases the lock before the write, so it is clean.
func (h *Hub) WriteUnlocked(p []byte) {
	h.mu.Lock()
	h.mu.Unlock()
	h.out.Write(p)
}

// WriteAudited deliberately serializes writers under the lock.
func (h *Hub) WriteAudited(p []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	//simvet:blockok — single serialized writer is this lock's purpose
	h.out.Write(p)
}

// Handler returns a closure whose own critical section is checked.
func (h *Hub) Handler() func([]byte) {
	return func(p []byte) {
		h.mu.Lock()
		defer h.mu.Unlock()
		h.out.Write(p) // want `blocking operation \(interface Write call\) in Handler while holding h.mu`
	}
}

// Spawn launches the write on its own goroutine, which inherits no
// locks, so it is clean.
func (h *Hub) Spawn(p []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	go func() {
		h.out.Write(p)
	}()
}

// Poll holds the lock across a defaulted select, which cannot block.
func (h *Hub) Poll() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	select {
	case v := <-h.ch:
		return v
	default:
		return 0
	}
}

// WaitLocked blocks on an undefaulted select while holding the lock;
// both the select and its comm receive are reported.
func (h *Hub) WaitLocked() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	select { // want `blocking operation \(select with no default case\) in WaitLocked while holding h.mu`
	case v := <-h.ch: // want `blocking operation \(channel receive\) in WaitLocked while holding h.mu`
		return v
	}
}

// Branchy holds the lock only into the true branch; the receive there
// is flagged, while everything after the unlock is clean.
func (h *Hub) Branchy(ready bool) int {
	h.mu.Lock()
	if ready {
		v := <-h.ch // want `blocking operation \(channel receive\) in Branchy while holding h.mu`
		h.mu.Unlock()
		return v
	}
	h.mu.Unlock()
	select {
	case v := <-h.ch:
		return v
	default:
		return 0
	}
}

// Lookup asks a store through its interface while locked: the
// annotated Get is reported, the unannotated Len is not.
func (h *Hub) Lookup(s simrun.Store, key string) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := s.Len()
	return n + s.Get(key) // want `blocking operation \(interface Get call, annotated //simvet:blocking\) in Lookup while holding h.mu`
}
