package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOutputsPinned replays the command lines recorded in testdata:
// dump, dot, route, partition and summary for every family and wiring
// at 2x2 switches over 3 stages and at the 4x3 default, recorded when
// the struct graph still backed every command. A BMIN route at t = 2
// prints its k^t paths; the partitions are the top-digit and the
// bottom-digit clusterings (Theorems 2-4).
func TestOutputsPinned(t *testing.T) {
	for _, net := range []string{"tmin", "dmin", "vmin", "bmin"} {
		for _, wiring := range []string{"cube", "butterfly"} {
			for _, size := range []struct {
				name, route string
				flags       []string
				top, bottom string
			}{
				{"k2n3", "1 5", []string{"-k", "2", "-stages", "3"}, "0** 1**", "**0 **1"},
				{"k4n3", "1 37", nil, "0** 1** 2** 3**", "**0 **1 **2 **3"},
			} {
				flags := append([]string{"-net", net, "-wiring", wiring}, size.flags...)
				var got bytes.Buffer
				for _, cmd := range []string{"dump", "dot", "route " + size.route, "partition " + size.top, "partition " + size.bottom, "summary"} {
					args := append(append([]string(nil), flags...), strings.Fields(cmd)...)
					fmt.Fprintf(&got, "$ topo %s\n", strings.Join(args, " "))
					if err := run(args, &got); err != nil {
						t.Fatalf("topo %s: %v", strings.Join(args, " "), err)
					}
				}
				file := filepath.Join("testdata", fmt.Sprintf("%s-%s-%s.golden", net, wiring, size.name))
				want, err := os.ReadFile(file)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Errorf("%s: output differs from the recording", file)
				}
			}
		}
	}
}

func TestRunRejectsBadCommandLines(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"frobnicate"},
		{"-net", "xmin", "dump"},
		{"route", "1"},
		{"route", "3", "3"},
		{"partition"},
		{"partition", "0*"},
		{"partition", "9**"},
	} {
		if err := run(args, new(bytes.Buffer)); err == nil {
			t.Errorf("topo %v: no error", args)
		}
	}
}
