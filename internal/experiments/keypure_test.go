package experiments

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"minsim/internal/metrics"
	"minsim/internal/simrun"
)

// TestKeyIsPure holds the content key to a pure function of the spec
// and the code: a key read from process state serves another
// process's result, or misses forever, and no pinned key shows it
// while that state is as it was when the key was pinned.
//
// It runs this test binary again, as children selected by -test.run
// alone, with -test.testlogfile, which logs every environment read and
// every file the child opens, stats or changes into. The control child
// (TestKeyIsPureControl) does nothing; the key child
// (TestKeyIsPureKeys) keys every point the registry plans. The test
// fails if the key child logs a line the control did not, if the key
// child's digest moves under another GOMAXPROCS, TZ, working directory
// or (on Linux) a one-CPU affinity mask, or if a child fails.
//
// Reads made while packages initialise precede the log, and Linux
// answers os.Hostname by uname, which the log does not see.
func TestKeyIsPure(t *testing.T) {
	control, _ := runChild(t, "TestKeyIsPureControl", "", nil, nil)
	log, want := runChild(t, "TestKeyIsPureKeys", "", nil, nil)
	if want == "" {
		t.Fatal("the key child logged no key digest")
	}
	seen := make(map[string]bool, len(control))
	for _, line := range control {
		seen[line] = true
	}
	for _, line := range log {
		if !seen[line] {
			t.Errorf("the key child logged %q; the control did not", line)
			seen[line] = true
		}
	}

	for _, v := range []struct {
		name string
		dir  string
		env  []string
	}{
		{name: "GOMAXPROCS=1", env: []string{"GOMAXPROCS=1"}},
		{name: "TZ=Asia/Kathmandu", env: []string{"TZ=Asia/Kathmandu"}},
		{name: "another working directory", dir: t.TempDir()},
	} {
		if _, got := runChild(t, "TestKeyIsPureKeys", v.dir, v.env, nil); got != want {
			t.Errorf("under %s the key digest is %s; %s as run", v.name, got, want)
		}
	}
	if runtime.NumCPU() < 2 || startOnOneCPU == nil {
		t.Logf("one-CPU affinity not tried: %d CPUs on %s", runtime.NumCPU(), runtime.GOOS)
		return
	}
	if _, got := runChild(t, "TestKeyIsPureKeys", "", nil, startOnOneCPU); got != want {
		t.Errorf("on one CPU the key digest is %s; %s on %d", got, want, runtime.NumCPU())
	}
}

// TestKeyIsPureControl is TestKeyIsPure's control child: it does
// nothing, so its log holds what the test binary itself reads.
func TestKeyIsPureControl(t *testing.T) {}

// TestKeyIsPureKeys is TestKeyIsPure's key child. It keys every point
// that Figures and Extensions plan at registryBudget against a store
// that has them all, so nothing simulates, and logs a SHA-256 of the
// sorted keys.
func TestKeyIsPureKeys(t *testing.T) {
	var store keyRecorder
	if _, err := RunAll(context.Background(), append(Figures(), Extensions()...), registryBudget, simrun.Options{Store: &store}); err != nil {
		t.Fatal(err)
	}
	if len(store.keys) == 0 {
		t.Fatal("the registry planned no keyed point")
	}
	slices.Sort(store.keys)
	h := sha256.New()
	for _, k := range store.keys {
		fmt.Fprintln(h, k)
	}
	t.Logf("key digest %x over %d keys", h.Sum(nil), len(store.keys))
}

var keyDigest = regexp.MustCompile(`key digest ([0-9a-f]{64}) over`)

// runChild runs this test binary's test name in dir (the package
// directory if ""), with env added to the environment, and returns the
// lines of its test log and the key digest it logged ("" if none). A
// non-nil start starts the command in place of cmd.Start.
func runChild(t *testing.T, name, dir string, env []string, start func(*exec.Cmd) error) (log []string, digest string) {
	t.Helper()
	bin, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	logFile := filepath.Join(t.TempDir(), "test.log")
	cmd := exec.Command(bin, "-test.run=^"+name+"$", "-test.count=1", "-test.v", "-test.timeout=1m", "-test.testlogfile="+logFile)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), env...)
	var out strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &out
	if start == nil {
		start = (*exec.Cmd).Start
	}
	if err := start(cmd); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("%s: %v\n%s", name, err, out.String())
	}
	data, err := os.ReadFile(logFile)
	if err != nil {
		t.Fatal(err)
	}
	if m := keyDigest.FindStringSubmatch(out.String()); m != nil {
		digest = m[1]
	}
	return strings.Split(strings.TrimSpace(string(data)), "\n"), digest
}

// keyRecorder is a Store that has every point: it records each key a
// plan asks for and answers with a zero point.
type keyRecorder struct {
	mu   sync.Mutex
	keys []string
}

func (s *keyRecorder) Get(key string) (metrics.Point, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.keys = append(s.keys, key)
	return metrics.Point{}, true
}

func (s *keyRecorder) Put(key, spec string, p metrics.Point) {}

func (s *keyRecorder) Stats() simrun.StoreStats { return simrun.StoreStats{} }
