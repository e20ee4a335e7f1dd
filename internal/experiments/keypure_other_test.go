//go:build !linux

package experiments

import "os/exec"

// startOnOneCPU is nil where this package cannot set an affinity mask.
var startOnOneCPU func(*exec.Cmd) error
