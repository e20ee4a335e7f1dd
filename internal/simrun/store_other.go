//go:build !linux

package simrun

import (
	"os"
	"path/filepath"
	"syscall"

	"minsim/internal/metrics"
)

// heldDir is empty here: without openat and renameat in package
// syscall, every entry is named by its full path.
type heldDir struct{}

func (s *DiskStore) hold() error { return nil }

// path is filepath.Join(s.dir, key+entryExt) for the keys a store
// sees, without Join's per-call Clean.
func (s *DiskStore) path(key string) string {
	return s.dir + string(filepath.Separator) + key + entryExt
}

// readEntry reads key's whole file into buf and decodes it: open, read
// until a read returns 0 bytes, close — four system calls for an entry
// that fits buf, which grows only for one that does not. It reads on a
// bare descriptor, not an *os.File, which would cost a File with a
// finalizer per Get. Every error, including reading a directory, is a
// miss.
func (s *DiskStore) readEntry(key string, buf []byte) (metrics.Point, bool) {
	fd, err := syscall.Open(s.path(key), syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	if err != nil {
		return metrics.Point{}, false
	}
	defer syscall.Close(fd)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := syscall.Read(fd, buf[len(buf):cap(buf)])
		switch {
		case err == syscall.EINTR: // interrupted before any byte moved: read again
		case err != nil:
			return metrics.Point{}, false
		case n == 0:
			return parseEntry(buf, key)
		default:
			buf = buf[:len(buf)+n]
		}
	}
}

// writeEntry writes data to a temp file in the store's directory and
// renames it onto key's entry, removing the temp file on any failure.
// It reports whether the entry was written.
func (s *DiskStore) writeEntry(key string, data []byte) bool {
	tmp, err := os.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		return false
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return false
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		os.Remove(tmp.Name())
		return false
	}
	return true
}
