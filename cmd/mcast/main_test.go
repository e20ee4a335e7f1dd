package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestOutputsPinned replays the usage lines of the package comment and
// the README, each with and without -gather, against a recording made
// before the command called internal/multicast directly.
func TestOutputsPinned(t *testing.T) {
	var got bytes.Buffer
	for _, line := range []string{
		"-net bmin -root 0 -dests 1,2,3,16,32 -len 256",
		"-net bmin -broadcast -len 128",
		"-net bmin -broadcast -len 256",
	} {
		for _, gather := range []string{"", " -gather"} {
			args := strings.Fields(line + gather)
			fmt.Fprintf(&got, "$ mcast %s\n", strings.Join(args, " "))
			if err := run(args, &got); err != nil {
				t.Fatalf("mcast %s: %v", line+gather, err)
			}
		}
	}
	want, err := os.ReadFile("testdata/usage.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("output differs from the recording:\n%s", got.String())
	}
}

func TestRunRejectsBadCommandLines(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"-net", "mesh", "-broadcast"},
		{"-dests", "1,x"},
		{"-dests", "0,1"},
		{"-dests", "64"},
	} {
		if err := run(args, new(bytes.Buffer)); err == nil {
			t.Errorf("mcast %v: no error", args)
		}
	}
}
