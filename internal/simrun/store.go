package simrun

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"

	"minsim/internal/metrics"
)

// DefaultCacheDir is where the CLIs keep the content-addressed result
// cache, relative to the working directory.
const DefaultCacheDir = "results/cache"

// Store is a content-addressed result cache keyed by RunSpec.Key().
// Implementations must be safe for concurrent use and must degrade,
// never abort: a Get that cannot trust its entry is a miss, a Put that
// cannot persist is counted in Stats().WriteFails and dropped. The
// local DiskStore and the fleet's HTTP-backed remote store both
// satisfy it, which is what lets a plan execute identically whether
// its cache lives on this machine or behind a coordinator.
type Store interface {
	// Get returns the cached point for key, or ok=false on any miss —
	// absent, unreadable, corrupt or mismatched entries alike.
	Get(key string) (metrics.Point, bool)
	// Put stores a result. Failures are counted, not returned: a cache
	// that cannot be written degrades to recomputation.
	Put(key, spec string, p metrics.Point)
	// Stats returns the store's lifetime lookup counters.
	Stats() StoreStats
}

// DiskStore is the local Store implementation: one small text file
// per RunSpec key, <dir>/<key>.entry (see entryMagic for the layout).
// Writes are atomic (temp file + rename), so a crashed or interrupted
// run never leaves a truncated entry that decodes; unreadable, corrupt
// or mismatched entries are treated as misses and recomputed, never
// trusted. A Get is the entry's read and nothing else, on a bare
// descriptor (readEntry). On Linux the store opens its directory once,
// in NewStore, and names every entry relative to that descriptor, so
// no Get or Put walks the directory's path again; the descriptor is
// closed once the store is unreachable. Such a store keeps serving the
// directory it opened, even if that path is later removed or replaced.
type DiskStore struct {
	dir        string  // cleaned once, in NewStore
	held       heldDir // the open directory, on Linux (store_linux.go)
	hits       atomic.Int64
	misses     atomic.Int64
	writeFails atomic.Int64
}

// entryMagic opens every cache entry and versions its layout, three
// newline-terminated lines:
//
//	minsim-entry-v1 <key>
//	"<spec>"
//	<the metrics.Point fields named by entryFields, space-separated>
//
// The key is repeated inside the file so a copied or renamed entry
// cannot masquerade as a different spec's result. The spec is there
// for cache spelunking only; it is Go-quoted, so no spec text can
// contain a raw newline and pose as the field line. Floats are written
// in their shortest form that parses back to the same bits. Changing
// the layout or the field list means a new version here: entries
// written by one binary are read by later ones, and readers treat every
// other magic as a miss.
const entryMagic = "minsim-entry-v1 "

// entryFields names, in order, the metrics.Point fields on an entry's
// third line. appendEntry and parseEntry are written out by hand in
// this order; a test holds the three (and metrics.Point) together.
const entryFields = "Offered OfferedMeasured Throughput LatencyCyc LatencyMs LatencyP0 LatencyP100 StdDev Messages Sustainable Replicas LatencyCILo LatencyCIHi ThroughputCILo ThroughputCIHi"

// entryExt names entry files. Entries of the earlier JSON layout live
// under <key>.json, are never opened, and may be deleted.
const entryExt = ".entry"

// entryBufSize holds any entry whose spec is an ordinary figure point
// (about 300 bytes); only a long trace spec makes Get grow past it.
const entryBufSize = 1024

// NewStore opens (creating if needed) a cache rooted at dir.
func NewStore(dir string) (*DiskStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("simrun: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("simrun: cache dir: %w", err)
	}
	s := &DiskStore{dir: filepath.Clean(dir)}
	if err := s.hold(); err != nil {
		return nil, fmt.Errorf("simrun: cache dir: %w", err)
	}
	return s, nil
}

// Dir returns the cache root, cleaned.
func (s *DiskStore) Dir() string { return s.dir }

// Get returns the cached point for key, or ok=false on a miss —
// including every corruption case (unreadable or truncated file,
// another layout, key mismatch), which a subsequent Put simply
// overwrites.
func (s *DiskStore) Get(key string) (metrics.Point, bool) {
	var buf [entryBufSize]byte
	p, ok := s.readEntry(key, buf[:0])
	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return p, ok
}

// Put stores a result atomically. Failures are counted but not fatal:
// a cache that cannot be written degrades to recomputation, it must
// never abort the simulation that produced the result.
func (s *DiskStore) Put(key, spec string, p metrics.Point) {
	var buf [entryBufSize]byte
	if !s.writeEntry(key, appendEntry(buf[:0], key, spec, p)) {
		s.writeFails.Add(1)
	}
}

// appendEntry appends the entry for (key, spec, p) to b.
func appendEntry(b []byte, key, spec string, p metrics.Point) []byte {
	b = append(b, entryMagic...)
	b = append(b, key...)
	b = append(b, '\n')
	b = strconv.AppendQuote(b, spec)
	b = append(b, '\n')
	for _, v := range [...]float64{p.Offered, p.OfferedMeasured, p.Throughput, p.LatencyCyc, p.LatencyMs, p.LatencyP0, p.LatencyP100, p.StdDev} {
		b = append(strconv.AppendFloat(b, v, 'g', -1, 64), ' ')
	}
	b = append(strconv.AppendInt(b, p.Messages, 10), ' ')
	b = append(strconv.AppendBool(b, p.Sustainable), ' ')
	b = append(strconv.AppendInt(b, int64(p.Replicas), 10), ' ')
	for _, v := range [...]float64{p.LatencyCILo, p.LatencyCIHi, p.ThroughputCILo, p.ThroughputCIHi} {
		b = append(strconv.AppendFloat(b, v, 'g', -1, 64), ' ')
	}
	b[len(b)-1] = '\n' // the last separator ends the line
	return b
}

// parseEntry decodes an entry written by appendEntry for key. It is
// strict: another magic or key, a spec line that is not one quoted
// string, a missing, extra, empty or unparsable field, a missing final
// newline or anything after it is a miss.
func parseEntry(data []byte, key string) (metrics.Point, bool) {
	rest, ok := bytes.CutPrefix(data, []byte(entryMagic))
	if !ok || len(rest) <= len(key) || string(rest[:len(key)]) != key || rest[len(key)] != '\n' {
		return metrics.Point{}, false
	}
	spec, rest, ok := bytes.Cut(rest[len(key)+1:], []byte{'\n'})
	if !ok || len(spec) < 2 || spec[0] != '"' || spec[len(spec)-1] != '"' {
		return metrics.Point{}, false
	}
	line, ok := bytes.CutSuffix(rest, []byte{'\n'})
	r := fieldReader{rest: line, ok: ok}
	var p metrics.Point
	for _, dst := range [...]*float64{&p.Offered, &p.OfferedMeasured, &p.Throughput, &p.LatencyCyc, &p.LatencyMs, &p.LatencyP0, &p.LatencyP100, &p.StdDev} {
		*dst = r.float()
	}
	p.Messages = r.int(64)
	p.Sustainable = r.bool()
	p.Replicas = int(r.int(strconv.IntSize))
	for _, dst := range [...]*float64{&p.LatencyCILo, &p.LatencyCIHi, &p.ThroughputCILo, &p.ThroughputCIHi} {
		*dst = r.float()
	}
	if !r.ok || len(r.rest) != 0 || bytes.HasSuffix(line, []byte{' '}) {
		return metrics.Point{}, false
	}
	return p, true
}

// fieldReader walks an entry's field line. The first malformed field
// clears ok; the calls after it are harmless (a line that runs out
// yields empty fields, which parse as nothing) and parseEntry checks
// ok once at the end.
type fieldReader struct {
	rest []byte
	ok   bool
}

// next returns the bytes before the next space and steps past it.
// (Written as r.rest = r.rest[...] so that escape analysis keeps Get's
// read buffer on the stack.)
func (r *fieldReader) next() []byte {
	i := bytes.IndexByte(r.rest, ' ')
	if i < 0 {
		i = len(r.rest) // the line's last field
	}
	f := r.rest[:i]
	r.rest = r.rest[min(i+1, len(r.rest)):]
	return f
}

func (r *fieldReader) float() float64 {
	v, err := strconv.ParseFloat(string(r.next()), 64)
	r.ok = r.ok && err == nil
	return v
}

func (r *fieldReader) int(bits int) int64 {
	v, err := strconv.ParseInt(string(r.next()), 10, bits)
	r.ok = r.ok && err == nil
	return v
}

func (r *fieldReader) bool() bool {
	f := string(r.next())
	r.ok = r.ok && (f == "true" || f == "false")
	return f == "true"
}

// StoreStats is a snapshot of a store's lookup and persistence
// counters, accumulated across every plan execution sharing the store
// (the simd service exports these on /metrics).
type StoreStats struct {
	Hits       int64 // Get calls served from disk
	Misses     int64 // Get calls that fell through to simulation
	WriteFails int64 // Puts that could not be persisted
}

// Stats returns the store's lifetime lookup counters.
func (s *DiskStore) Stats() StoreStats {
	return StoreStats{
		Hits:       s.hits.Load(),
		Misses:     s.misses.Load(),
		WriteFails: s.writeFails.Load(),
	}
}
