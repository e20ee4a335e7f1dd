// Package cli holds what more than one command shares: the pprof
// wiring behind -cpuprofile and -memprofile (minsim sweep and
// cmd/figures), and the flags and serving shell of cmd/simd and
// cmd/simfleet.
package cli

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartProfiles begins CPU profiling into cpuPath and arranges for a
// heap profile to be written to memPath; either path may be empty to
// skip that profile. It returns a stop function to be called (e.g.
// deferred) after the measured work, which finishes both profiles.
// This is the standard runtime/pprof wiring shared by minsim sweep and
// cmd/figures so hot-path work is measurable without editing code:
//
//	minsim sweep -cpuprofile cpu.out ... && go tool pprof -top cpu.out
func StartProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // get up-to-date allocation statistics
			if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}
	}, nil
}
