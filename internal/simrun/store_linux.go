//go:build linux

package simrun

import (
	"math/rand/v2"
	"runtime"
	"strconv"
	"syscall"

	"minsim/internal/metrics"
)

// heldDir is the store's directory, opened once by hold. Every entry
// is opened, created, renamed and removed relative to fd, so the
// kernel looks up one name per call instead of walking the whole path.
// A runtime cleanup closes fd once the store is unreachable; every
// method that passes fd to the kernel keeps the store alive past that
// call (runtime.KeepAlive), so the cleanup cannot close fd, and the
// number cannot be reused, under a call in flight. There is no Close:
// a caller may open a store per plan and drop it, and a Close racing a
// concurrent Get could hand openat a reused descriptor.
type heldDir struct{ fd int }

func (s *DiskStore) hold() error {
	fd, err := syscall.Open(s.dir, syscall.O_RDONLY|syscall.O_DIRECTORY|syscall.O_CLOEXEC, 0)
	if err != nil {
		return err
	}
	s.held.fd = fd
	runtime.AddCleanup(s, func(fd int) { syscall.Close(fd) }, fd)
	return nil
}

// readEntry reads key's whole file into buf and decodes it: openat,
// read, close — three system calls for an entry that fits buf, which
// grows only for one that does not. A read that returns fewer bytes
// than buf has room for ends it: for a regular file that is the end of
// the file, so no fourth call is made to be told "0 bytes". Any other
// short read leaves a prefix of the entry in buf, and no proper prefix
// of an entry decodes (TestEntryDamageIsAMiss), so the worst it can do
// is cost one recompute, never return a wrong point. It reads on a
// bare descriptor, not an *os.File: os.Open would also switch the
// descriptor to non-blocking and back and try to register a regular
// file with the poller (five more calls, all of them useless for a
// file) and allocate a File with a finalizer. Every error, including
// reading a directory, is a miss.
func (s *DiskStore) readEntry(key string, buf []byte) (metrics.Point, bool) {
	fd, err := syscall.Openat(s.held.fd, key+entryExt, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	runtime.KeepAlive(s)
	if err != nil {
		return metrics.Point{}, false
	}
	defer syscall.Close(fd)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		room := cap(buf) - len(buf)
		n, err := syscall.Read(fd, buf[len(buf):cap(buf)])
		switch {
		case err == syscall.EINTR: // interrupted before any byte moved: read again
		case err != nil:
			return metrics.Point{}, false
		case n < room:
			return parseEntry(buf[:len(buf)+n], key)
		default:
			buf = buf[:len(buf)+n]
		}
	}
}

// writeEntry writes data to a new temp file in the store's directory
// and renames it onto key's entry, removing the temp file on any
// failure. It reports whether the entry was written.
func (s *DiskStore) writeEntry(key string, data []byte) bool {
	defer runtime.KeepAlive(s)
	tmp, fd, err := s.createTemp()
	if err != nil {
		return false
	}
	written := writeAll(fd, data)
	if syscall.Close(fd) != nil || !written || syscall.Renameat(s.held.fd, tmp, s.held.fd, key+entryExt) != nil {
		syscall.Unlinkat(s.held.fd, tmp)
		return false
	}
	return true
}

// createTemp creates an empty file under a new random name in the
// store's directory, 0600 as os.CreateTemp makes it, and returns its
// name and a bare descriptor: no File and no finalizer per Put.
func (s *DiskStore) createTemp() (string, int, error) {
	var b [32]byte
	for try := 1; ; try++ {
		name := string(strconv.AppendUint(append(b[:0], ".tmp-"...), rand.Uint64(), 36))
		fd, err := syscall.Openat(s.held.fd, name, syscall.O_WRONLY|syscall.O_CREAT|syscall.O_EXCL|syscall.O_CLOEXEC, 0o600)
		if err != syscall.EEXIST || try == 100 {
			return name, fd, err
		}
	}
}

// writeAll writes data to fd whole, as os.File's Write does, and
// reports whether it could.
func writeAll(fd int, data []byte) bool {
	for len(data) > 0 {
		n, err := syscall.Write(fd, data)
		switch {
		case err == syscall.EINTR: // nothing written: write again
		case err != nil || n == 0:
			return false
		default:
			data = data[n:]
		}
	}
	return true
}
