package main

import (
	"bytes"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// syncBuffer is a stderr that handler goroutines may write while the
// test reads it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var servingOn = regexp.MustCompile(`serving on (\S+)`)

// start runs one service command line in the background and returns
// its base URL once it listens, and a channel that delivers its exit
// status.
func start(t *testing.T, args ...string) (string, *syncBuffer, <-chan int) {
	t.Helper()
	stderr := new(syncBuffer)
	done := make(chan int, 1)
	go func() { done <- minsim(args, io.Discard, stderr) }()
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if m := servingOn.FindStringSubmatch(stderr.String()); m != nil {
			return "http://" + m[1], stderr, done
		}
		select {
		case code := <-done:
			t.Fatalf("minsim %v exited %d before serving:\n%s", args, code, stderr)
		default:
		}
	}
	t.Fatalf("minsim %v never served:\n%s", args, stderr)
	return "", nil, nil
}

// gauge reads one unlabelled value from base's /metrics.
func gauge(t *testing.T, base, name string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(text), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return v
		}
	}
	return ""
}

// TestServeAndCoordinateDrainOnSIGTERM: a coordinator and a worker
// served by minsim itself, on loopback ports, take the worker's
// registration and its held lease call; one SIGTERM drains both, each
// exits 0 and says so.
func TestServeAndCoordinateDrainOnSIGTERM(t *testing.T) {
	dir := t.TempDir()
	coord, coordLog, coordDone := start(t, "coordinate", "-addr", "127.0.0.1:0", "-cache", dir+"/fleet")
	_, workerLog, workerDone := start(t, "serve", "-addr", "127.0.0.1:0", "-cache", dir+"/worker",
		"-coordinator", coord, "-worker-name", "w1")
	for deadline := time.Now().Add(30 * time.Second); gauge(t, coord, "fleet_lease_waiters") != "1"; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the worker never parked in a lease call:\n%s\n%s", coordLog, workerLog)
		}
	}
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		log  *syncBuffer
		done <-chan int
	}{{"coordinate", coordLog, coordDone}, {"serve", workerLog, workerDone}} {
		select {
		case code := <-c.done:
			if want := "minsim " + c.name + ": drained, exiting\n"; code != 0 || !strings.HasSuffix(c.log.String(), want) {
				t.Errorf("minsim %s exited %d after SIGTERM, want 0 and %q:\n%s", c.name, code, want, c.log)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("minsim %s did not drain:\n%s", c.name, c.log)
		}
	}
}
