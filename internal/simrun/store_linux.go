//go:build linux

package simrun

import (
	"math/rand/v2"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"unsafe"

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

// nameMax is NAME_MAX, the longest name one directory entry may have.
const nameMax = 255

// cName is one directory entry's name as the kernel reads it, with
// its terminating NUL, built on the caller's stack: syscall.Openat and
// its kin copy every name they are given onto the heap, so the store
// calls the kernel itself (openat, renameat, unlinkat). Each call
// converts the pointer to uintptr in syscall.Syscall6's argument list,
// the one form for which the compiler keeps the array alive and in
// place until the call returns (unsafe.Pointer's rule 4).
type cName [nameMax + 1]byte

// setEntry writes key's entry name into n. It reports false for a key
// the kernel would refuse, without asking it: one with a NUL, which no
// name can hold (package syscall's EINVAL), or whose name is longer
// than NAME_MAX (the kernel's ENAMETOOLONG). A key with a '/' is
// passed on, and the kernel resolves it as it always did.
func (n *cName) setEntry(key string) bool {
	if len(key)+len(entryExt) > nameMax || strings.IndexByte(key, 0) >= 0 {
		return false
	}
	copy(n[copy(n[:], key):], entryExt+"\x00")
	return true
}

// openat opens name relative to dirfd, as syscall.Openat does.
func openat(dirfd int, name *cName, flags int, mode uint32) (int, syscall.Errno) {
	fd, _, errno := syscall.Syscall6(syscall.SYS_OPENAT, uintptr(dirfd), uintptr(unsafe.Pointer(name)),
		uintptr(flags|syscall.O_LARGEFILE), uintptr(mode), 0, 0)
	return int(fd), errno
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
// file) and allocate a File with a finalizer. The entry's name is
// built on the stack (cName), so a Get that fits buf allocates
// nothing. Every error, including reading a directory, is a miss.
func (s *DiskStore) readEntry(key string, buf []byte) (metrics.Point, bool) {
	var name cName
	if !name.setEntry(key) {
		return metrics.Point{}, false
	}
	fd, errno := openat(s.held.fd, &name, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	runtime.KeepAlive(s)
	if errno != 0 {
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
// failure. It reports whether the entry was written. Both names are
// built on the stack and handed to renameat and unlinkat directly, so
// a Put allocates nothing. A key the kernel would refuse fails before
// a temp file is made.
func (s *DiskStore) writeEntry(key string, data []byte) bool {
	defer runtime.KeepAlive(s)
	var name, tmp cName
	if !name.setEntry(key) {
		return false
	}
	fd, errno := s.createTemp(&tmp)
	if errno != 0 {
		return false
	}
	written := writeAll(fd, data)
	if syscall.Close(fd) != nil || !written || renameat(s.held.fd, &tmp, &name) != 0 {
		unlinkat(s.held.fd, &tmp)
		return false
	}
	return true
}

// renameat renames from onto to, both relative to dirfd. The fifth
// argument is renameat2's flags where sysRenameat is renameat2.
func renameat(dirfd int, from, to *cName) syscall.Errno {
	_, _, errno := syscall.Syscall6(sysRenameat, uintptr(dirfd), uintptr(unsafe.Pointer(from)),
		uintptr(dirfd), uintptr(unsafe.Pointer(to)), 0, 0)
	return errno
}

// unlinkat removes name, relative to dirfd.
func unlinkat(dirfd int, name *cName) {
	syscall.Syscall(syscall.SYS_UNLINKAT, uintptr(dirfd), uintptr(unsafe.Pointer(name)), 0)
}

// createTemp creates an empty file under a new random name, written
// into name, in the store's directory, 0600 as os.CreateTemp makes it,
// and returns a bare descriptor: no File and no finalizer per Put.
func (s *DiskStore) createTemp(name *cName) (int, syscall.Errno) {
	for try := 1; ; try++ {
		b := strconv.AppendUint(append(name[:0], ".tmp-"...), rand.Uint64(), 36)
		name[len(b)] = 0
		fd, errno := openat(s.held.fd, name, syscall.O_WRONLY|syscall.O_CREAT|syscall.O_EXCL|syscall.O_CLOEXEC, 0o600)
		if errno != syscall.EEXIST || try == 100 {
			return fd, errno
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
