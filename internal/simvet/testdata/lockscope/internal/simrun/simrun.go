// Package simrun provides the cross-package half of the fixture:
// Flush's and Peek's blocking summaries are exported as facts and
// consumed by the server package's critical-section check.
package simrun

import (
	"os"
	"sync"
	"syscall"
)

// Flush persists a snapshot; its exported fact says it blocks.
func Flush(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

// Tracker guards a counter.
type Tracker struct {
	mu    sync.Mutex
	count int
}

// Bump is a clean critical section: nothing inside can block.
func (t *Tracker) Bump() {
	t.mu.Lock()
	t.count++
	t.mu.Unlock()
}

// Dump does disk I/O while holding the mutex.
func (t *Tracker) Dump(path string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	os.WriteFile(path, nil, 0o644) // want `blocking operation \(os.WriteFile disk write\) in Dump while holding t.mu`
}

// Peek reads a file on a bare descriptor; its exported fact says it
// blocks just as an os.File read would.
func Peek(path string, buf []byte) int {
	fd, err := syscall.Open(path, syscall.O_RDONLY, 0)
	if err != nil {
		return 0
	}
	defer syscall.Close(fd)
	n, _ := syscall.Read(fd, buf)
	return n
}

// PeekLocked makes each of Peek's calls under the mutex.
func (t *Tracker) PeekLocked(path string, buf []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	fd, err := syscall.Open(path, syscall.O_RDONLY, 0) // want `blocking operation \(syscall.Open disk open\) in PeekLocked while holding t.mu`
	if err != nil {
		return
	}
	syscall.Read(fd, buf) // want `blocking operation \(syscall.Read file read\) in PeekLocked while holding t.mu`
	syscall.Close(fd)     // want `blocking operation \(syscall.Close file close\) in PeekLocked while holding t.mu`
}

// Store is an interface whose implementations do I/O; its annotated
// method counts as blocking wherever it is called through the
// interface, and the unannotated one does not.
type Store interface {
	//simvet:blocking — reads the backing store
	Get(key string) int
	Len() int
}
