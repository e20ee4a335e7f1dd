package cli

import (
	"testing"

	"minsim"
)

func TestParseKind(t *testing.T) {
	cases := map[string]minsim.Kind{
		"tmin": minsim.TMIN, "TMIN": minsim.TMIN,
		"dmin": minsim.DMIN, "vmin": minsim.VMIN, "Bmin": minsim.BMIN,
	}
	for s, want := range cases {
		got, err := ParseKind(s)
		if err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseKind("mesh"); err == nil {
		t.Error("bad kind accepted")
	}
}

func TestParseWiring(t *testing.T) {
	for s, want := range map[string]minsim.Wiring{
		"cube": minsim.Cube, "butterfly": minsim.Butterfly,
		"omega": minsim.Omega, "baseline": minsim.Baseline,
	} {
		got, err := ParseWiring(s)
		if err != nil || got != want {
			t.Errorf("ParseWiring(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseWiring("banyan"); err == nil {
		t.Error("bad wiring accepted")
	}
}

func TestParsePatternAndScope(t *testing.T) {
	if p, err := ParsePattern("hotspot"); err != nil || p != minsim.HotSpot {
		t.Error("hotspot parse failed")
	}
	if _, err := ParsePattern("x"); err == nil {
		t.Error("bad pattern accepted")
	}
	if sc, err := ParseScope("cluster32"); err != nil || sc != minsim.Cluster32 {
		t.Error("cluster32 parse failed")
	}
	if _, err := ParseScope("x"); err == nil {
		t.Error("bad scope accepted")
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
