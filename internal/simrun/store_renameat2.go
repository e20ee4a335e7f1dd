//go:build linux && (riscv64 || loong64)

package simrun

import "syscall"

// sysRenameat is renameat2's number: these architectures have no
// renameat, and renameat2 with flags 0 (the fifth argument the
// store's renameat passes) is the same call, as package syscall's own
// Renameat makes it here.
const sysRenameat = syscall.SYS_RENAMEAT2
