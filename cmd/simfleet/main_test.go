package main

import (
	"bytes"
	"os"
	"testing"
)

// TestHelpPinned: -h lists every flag with its usage and default
// exactly as a recording made before the shared flags moved into
// internal/cli, and an unknown flag exits 2.
func TestHelpPinned(t *testing.T) {
	var got bytes.Buffer
	if code := run([]string{"-h"}, &got); code != 0 {
		t.Fatalf("simfleet -h exited %d", code)
	}
	want, err := os.ReadFile("testdata/help.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("-h differs from the recording:\n%s", got.String())
	}
	if code := run([]string{"-no-such-flag"}, new(bytes.Buffer)); code != 2 {
		t.Errorf("simfleet -no-such-flag exited %d; want 2", code)
	}
}
