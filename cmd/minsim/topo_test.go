package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"minsim/internal/topology"
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
					if err := topo(args, &got, io.Discard); err != nil {
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

// TestDeltaWirings: -wiring omega and baseline build those wirings,
// which the command once replaced by the cube. The summaries are pinned
// in testdata (recorded when the wirings were fixed; the names there
// come from topology.Network.Name), and each dump is the one
// topology.NewUnidirectional gives for the pattern.
func TestDeltaWirings(t *testing.T) {
	for _, wiring := range []struct {
		name    string
		pattern topology.Pattern
	}{{"omega", topology.Omega}, {"baseline", topology.Baseline}} {
		var got bytes.Buffer
		for _, net := range []struct {
			name          string
			dilation, vcs int
		}{{"tmin", 1, 1}, {"dmin", 2, 1}, {"vmin", 1, 2}} {
			for _, size := range []struct{ k, stages int }{{2, 3}, {4, 3}} {
				flags := []string{"-net", net.name, "-wiring", wiring.name, "-k", strconv.Itoa(size.k), "-stages", strconv.Itoa(size.stages)}
				fmt.Fprintf(&got, "$ topo %s summary\n", strings.Join(flags, " "))
				if err := topo(append(flags, "summary"), &got, io.Discard); err != nil {
					t.Fatal(err)
				}
				var dump bytes.Buffer
				if err := topo(append(flags, "dump"), &dump, io.Discard); err != nil {
					t.Fatal(err)
				}
				want, err := topology.NewUnidirectional(topology.UniConfig{
					K: size.k, Stages: size.stages, Pattern: wiring.pattern, Dilation: net.dilation, VCs: net.vcs,
				})
				if err != nil {
					t.Fatal(err)
				}
				if dump.String() != want.Dump() {
					t.Errorf("topo %s dump differs from the %s network's", strings.Join(flags, " "), wiring.name)
				}
			}
		}
		file := filepath.Join("testdata", wiring.name+"-summary.golden")
		want, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: output differs from the recording", file)
		}
	}
}

// TestTopoBMINDefault: topo's default BMIN is the paper's 384-channel
// network, one virtual channel per link direction.
func TestTopoBMINDefault(t *testing.T) {
	var got bytes.Buffer
	if err := topo([]string{"-net", "bmin", "summary"}, &got, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got.String(), "virtual channels: 384\n") {
		t.Errorf("topo -net bmin summary:\n%s", got.String())
	}
}

// TestTopoRejectsBadCommandLines: topo refuses a missing or unknown
// command, an unknown network or wiring, and route and partition
// arguments it cannot read, with a non-zero exit and nothing on stdout.
func TestTopoRejectsBadCommandLines(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"topo"}, "usage: minsim topo"},
		{[]string{"topo", "frobnicate"}, "usage: minsim topo"},
		{[]string{"topo", "-net", "xmin", "dump"}, ""},
		{[]string{"topo", "-wiring", "bogus", "summary"}, ""},
		{[]string{"topo", "route", "1"}, ""},
		{[]string{"topo", "route", "3", "3"}, ""},
		{[]string{"topo", "partition"}, ""},
		{[]string{"topo", "partition", "0*"}, ""},
		{[]string{"topo", "partition", "9**"}, ""},
	} {
		refuses(t, c.args, c.want)
	}
}
