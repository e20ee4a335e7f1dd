package experiments

import (
	"math/bits"
	"os/exec"
	"runtime"
	"syscall"
	"unsafe"
)

// startOnOneCPU starts cmd from a thread whose affinity mask holds one
// of its CPUs, so the child inherits that mask and its runtime.NumCPU
// is 1. The thread is locked and never unlocked, so it exits with its
// goroutine and no other goroutine runs on it.
var startOnOneCPU = func(cmd *exec.Cmd) error {
	errc := make(chan error)
	go func() {
		runtime.LockOSThread()
		var set [16]uint64 // 1024 CPUs, the kernel's default cpu_set_t
		if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(set), uintptr(unsafe.Pointer(&set))); e != 0 {
			errc <- e
			return
		}
		var one [16]uint64
		for i, w := range set {
			if w != 0 {
				one[i] = 1 << bits.TrailingZeros64(w)
				break
			}
		}
		if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one))); e != 0 {
			errc <- e
			return
		}
		errc <- cmd.Start()
	}()
	return <-errc
}
