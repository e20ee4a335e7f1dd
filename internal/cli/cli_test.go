package cli

import (
	"flag"
	"testing"
)

// TestNetworkFlags: unset dimensions take the family defaults (the
// paper's 384-channel DMIN, VMIN and BMIN), every wiring the spec
// parser knows is accepted, and an unknown name, a switch arity that is
// not a power of two or a network too large to run is refused.
func TestNetworkFlags(t *testing.T) {
	for _, c := range []struct {
		args []string
		name string
	}{
		{nil, "TMIN(cube) 64 nodes 4x4"},
		{[]string{"-net", "dmin"}, "DMIN(cube,d=2) 64 nodes 4x4"},
		{[]string{"-net", "VMIN", "-wiring", "omega"}, "VMIN(omega,vc=2) 64 nodes 4x4"},
		{[]string{"-net", "bmin"}, "BMIN 64 nodes 4x4"},
		{[]string{"-net", "bmin", "-vcs", "2"}, "BMIN(vc=2) 64 nodes 4x4"},
		{[]string{"-net", "tmin", "-wiring", "baseline", "-k", "2", "-stages", "4"}, "TMIN(baseline) 16 nodes 2x2"},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		nf := AddNetworkFlags(fs)
		if err := fs.Parse(c.args); err != nil {
			t.Fatal(err)
		}
		_, net, err := nf.Build()
		if err != nil || net.Name() != c.name {
			t.Errorf("%v: %v, %v; want %s", c.args, net, err, c.name)
		}
	}
	// 2^26 nodes is 1.8 G channels, past simrun.MaxChannels.
	for _, args := range [][]string{{"-net", "mesh"}, {"-wiring", "banyan"}, {"-k", "3"}, {"-k", "2", "-stages", "26"}} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		nf := AddNetworkFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		if _, _, err := nf.Build(); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

func TestParseRatios(t *testing.T) {
	got, err := ParseRatios("4:1:1:1")
	if err != nil || len(got) != 4 || got[0] != 4 || got[3] != 1 {
		t.Errorf("ParseRatios = %v, %v", got, err)
	}
	if _, err := ParseRatios("1:x"); err == nil {
		t.Error("bad ratio accepted")
	}
	if _, err := ParseRatios("1:-2"); err == nil {
		t.Error("negative ratio accepted")
	}
	if got, err := ParseRatios("2.5"); err != nil || got[0] != 2.5 {
		t.Error("single float ratio failed")
	}
}

func TestParseNodeList(t *testing.T) {
	got, err := ParseNodeList("1, 2,16")
	if err != nil || len(got) != 3 || got[2] != 16 {
		t.Errorf("ParseNodeList = %v, %v", got, err)
	}
	if _, err := ParseNodeList(""); err == nil {
		t.Error("empty list accepted")
	}
	if _, err := ParseNodeList("1,a"); err == nil {
		t.Error("bad node accepted")
	}
}
