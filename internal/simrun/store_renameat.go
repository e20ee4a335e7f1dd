//go:build linux && !riscv64 && !loong64

package simrun

import "syscall"

// sysRenameat is renameat's number. The store's renameat passes a
// fifth argument of 0, which renameat ignores.
const sysRenameat = syscall.SYS_RENAMEAT
