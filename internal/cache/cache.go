// Package cache is a content-addressed memoization layer for the CAD flow.
//
// The paper's economic claim (C1/C3) is that partial reconfiguration avoids
// redundant CAD work; this package generalises the same amortization to every
// stage of the reproduction's flow. A stage result (a placement, a routed
// design, a bitstream, a generated partial) is stored under a Key derived
// from a stable hash of everything the stage's output depends on — netlist
// content, constraints, part, region, seed, options — so byte-identical
// inputs fetch byte-identical outputs instead of recomputing them.
//
// The cache is a concurrency-safe in-memory LRU (bounded by entry count and
// approximate bytes) with an optional on-disk store under $JPG_CACHE_DIR
// (atomic rename writes, corruption-tolerant reads that degrade to a miss).
// Lookups are single-flighted through a Group: when two workers request the
// same missing key concurrently, one computes and the other waits for the
// result, so a warm pool never duplicates in-flight work. When the computing
// worker fails, its waiters are promoted one at a time: the next computes
// and stores the value while the rest keep waiting for it.
//
// The package's LRU and Group are also the jpgd serving layer's artifact
// cache and request coalescer, so each mechanism exists once.
//
// Correctness contract: a cache must never change results, only wall-clock.
// Keys therefore cover every input a stage consumes, and the flow's
// determinism tests assert byte-identical artifacts with the cache cold,
// warm, and disabled, at any worker count. All methods are safe on a nil
// *Cache (they degrade to straight computation), so callers thread an
// optional cache without branching.
package cache

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"os"
	"sort"
	"sync"

	"repro/internal/obs"
)

// Key is a content-address: a SHA-256 over a stage's labelled inputs.
type Key [sha256.Size]byte

// String renders the key as lowercase hex (the on-disk file name).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Hasher accumulates labelled fields into a Key. Every field is written as
// (label, length, value) so field boundaries can never alias, and the
// constructor's domain string separates key spaces of different stages.
type Hasher struct {
	h   hash.Hash
	buf [8]byte
}

// NewHasher starts a hash in the given domain (e.g. "flow.place/v1").
// Bump the domain's version suffix whenever the set or meaning of hashed
// fields changes, so stale disk entries can never be misread.
func NewHasher(domain string) *Hasher {
	h := &Hasher{h: sha256.New()}
	h.write("domain", []byte(domain))
	return h
}

func (h *Hasher) write(label string, val []byte) {
	binary.BigEndian.PutUint64(h.buf[:], uint64(len(label)))
	h.h.Write(h.buf[:])
	h.h.Write([]byte(label))
	binary.BigEndian.PutUint64(h.buf[:], uint64(len(val)))
	h.h.Write(h.buf[:])
	h.h.Write(val)
}

// Str hashes a labelled string field.
func (h *Hasher) Str(label, v string) { h.write(label, []byte(v)) }

// Bytes hashes a labelled byte-slice field.
func (h *Hasher) Bytes(label string, v []byte) { h.write(label, v) }

// Int hashes a labelled signed integer field.
func (h *Hasher) Int(label string, v int64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(v))
	h.write(label, b[:])
}

// Float hashes a labelled float field by its IEEE-754 bits.
func (h *Hasher) Float(label string, v float64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], math.Float64bits(v))
	h.write(label, b[:])
}

// Bool hashes a labelled boolean field.
func (h *Hasher) Bool(label string, v bool) {
	b := []byte{0}
	if v {
		b[0] = 1
	}
	h.write(label, b)
}

// Key hashes a labelled sub-key, chaining content addresses across stages
// (a route key includes its place key, a bitgen key its route key).
func (h *Hasher) Key(label string, k Key) { h.write(label, k[:]) }

// Sum finalises the key.
func (h *Hasher) Sum() Key {
	var k Key
	copy(k[:], h.h.Sum(nil))
	return k
}

// Environment variables configuring the process-default cache.
const (
	// EnvDir names the on-disk store directory. Setting it enables the
	// default cache with a disk tier.
	EnvDir = "JPG_CACHE_DIR"
	// EnvMode switches the default cache: "1"/"on"/"mem" enables a
	// memory-only cache, "0"/"off" disables caching even when EnvDir is
	// set. Unset defers to EnvDir.
	EnvMode = "JPG_CACHE"
)

// EnvEnabled reports whether the environment asks for a default cache
// ($JPG_CACHE_DIR set, or $JPG_CACHE on, and not explicitly switched off).
func EnvEnabled() bool {
	switch os.Getenv(EnvMode) {
	case "0", "off", "false":
		return false
	case "1", "on", "true", "mem":
		return true
	}
	return os.Getenv(EnvDir) != ""
}

var (
	defaultOnce  sync.Once
	defaultCache *Cache
)

// Default returns the process-wide cache configured from the environment,
// or nil when the environment does not enable one. The jpg facade exposes
// it as DefaultCache; the CLIs read the same variables as their -cache and
// -cache-dir flag defaults and build their cache with Open. The library
// never consults it implicitly.
func Default() *Cache {
	defaultOnce.Do(func() {
		if EnvEnabled() {
			defaultCache = Open(true, os.Getenv(EnvDir))
		}
	})
	return defaultCache
}

// Open returns the cache a -cache/-cache-dir flag pair asks for: nil when
// neither is set, else default bounds with a disk tier under dir only.
func Open(use bool, dir string) *Cache {
	if !use && dir == "" {
		return nil
	}
	return New(Options{Dir: dir, NoDisk: dir == ""})
}

// Options bounds a cache.
type Options struct {
	// MaxEntries caps the number of resident entries (default 4096).
	MaxEntries int
	// MaxBytes caps the approximate resident bytes (default 256 MiB).
	MaxBytes int64
	// Dir enables the on-disk store rooted at this directory. Empty
	// defaults to $JPG_CACHE_DIR; set NoDisk to force memory-only.
	Dir string
	// NoDisk forces a memory-only cache regardless of Dir/$JPG_CACHE_DIR.
	NoDisk bool
}

// Cache metrics (always on; see internal/obs). cache.hit/miss/evict count
// lookups and evictions across all stages; per-stage counters are registered
// as cache.hit.<stage> / cache.miss.<stage> on first use.
var (
	mHit       = obs.GetCounter("cache.hit")
	mMiss      = obs.GetCounter("cache.miss")
	mEvict     = obs.GetCounter("cache.evict")
	mBytes     = obs.GetGauge("cache.bytes")
	mEntries   = obs.GetGauge("cache.entries")
	mDiskHit   = obs.GetCounter("cache.disk_hit")
	mDiskWrite = obs.GetCounter("cache.disk_write")
	mDiskError = obs.GetCounter("cache.disk_error")
	mWaits     = obs.GetCounter("cache.flight_wait")
)

// entry is one resident value: bytes for GetOrCompute, a live object for
// GetOrComputeValue.
type entry struct {
	data []byte
	obj  any
}

// stageCounters tracks one stage's hits and misses for Stats reporting
// (the obs registry carries the same numbers process-wide).
type stageCounters struct {
	hits, misses int64
}

// Cache is a bounded, concurrency-safe, content-addressed store.
type Cache struct {
	mu        sync.Mutex
	mem       *LRU[entry]
	stages    map[string]*stageCounters
	evictions int64
	flights   Group
	disk      *diskStore
}

// New returns a cache. See Options for bounds and the disk tier.
func New(o Options) *Cache {
	if o.MaxEntries <= 0 {
		o.MaxEntries = 4096
	}
	if o.MaxBytes <= 0 {
		o.MaxBytes = 256 << 20
	}
	dir := o.Dir
	if dir == "" {
		dir = os.Getenv(EnvDir)
	}
	c := &Cache{
		mem:    NewLRU[entry](o.MaxEntries, o.MaxBytes),
		stages: map[string]*stageCounters{},
	}
	if dir != "" && !o.NoDisk {
		c.disk = &diskStore{root: dir}
	}
	return c
}

// Dir returns the on-disk store root ("" for memory-only or nil caches).
func (c *Cache) Dir() string {
	if c == nil || c.disk == nil {
		return ""
	}
	return c.disk.root
}

// countHit/countMiss update both the per-cache stage counters and the
// process-wide obs registry. Callers hold c.mu.
func (c *Cache) countHit(stage string) {
	c.stage(stage).hits++
	mHit.Inc()
	obs.GetCounter("cache.hit." + stage).Inc()
}

func (c *Cache) countMiss(stage string) {
	c.stage(stage).misses++
	mMiss.Inc()
	obs.GetCounter("cache.miss." + stage).Inc()
}

func (c *Cache) stage(stage string) *stageCounters {
	sc := c.stages[stage]
	if sc == nil {
		sc = &stageCounters{}
		c.stages[stage] = sc
	}
	return sc
}

// insertLocked stores an entry, evicting from the LRU tail while over
// bounds. Callers hold c.mu.
func (c *Cache) insertLocked(k Key, e entry, size int64) {
	n := int64(c.mem.Put(k, e, size))
	c.evictions += n
	mEvict.Add(n)
	c.setGauges()
}

func (c *Cache) setGauges() {
	mBytes.Set(c.mem.Bytes())
	mEntries.Set(int64(c.mem.Len()))
}

// Remove drops an entry from memory and disk (used when a consumer finds an
// entry unusable, e.g. a bind failure on reconstructed artifacts).
func (c *Cache) Remove(stage string, k Key) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.mem.Remove(k)
	c.setGauges()
	c.mu.Unlock()
	if c.disk != nil {
		c.disk.remove(stage, k)
	}
}

// clone returns a defensive copy; cached arrays are never handed out
// directly so a caller mutating its result cannot poison the store.
func clone(b []byte) []byte {
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// lookup returns the resident entry under k when has accepts it, counting a
// hit for stage; a miss counts nothing.
func (c *Cache) lookup(stage string, k Key, has func(entry) bool) (entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.mem.Get(k)
	if !ok || !has(e) {
		return entry{}, false
	}
	c.countHit(stage)
	return e, true
}

func hasData(e entry) bool { return e.data != nil }
func hasObj(e entry) bool  { return e.obj != nil }

// fromDisk promotes (stage, k) from the disk tier into memory, counting a
// hit; it reports false without a disk tier or a valid disk entry.
func (c *Cache) fromDisk(stage string, k Key) ([]byte, bool) {
	if c.disk == nil {
		return nil, false
	}
	data, ok := c.disk.get(stage, k)
	if !ok {
		return nil, false
	}
	c.mu.Lock()
	c.insertLocked(k, entry{data: data}, int64(len(data)))
	c.countHit(stage)
	mDiskHit.Inc()
	c.mu.Unlock()
	return data, true
}

// countShared accounts for a follower served by another caller's flight.
func (c *Cache) countShared(stage string) {
	mWaits.Inc()
	c.mu.Lock()
	c.countHit(stage)
	c.mu.Unlock()
}

// GetOrCompute returns the bytes stored under (stage, key), computing and
// storing them on a miss. Concurrent callers of the same missing key are
// single-flighted through a Group: exactly one runs compute, the rest wait
// for its result. hit reports whether this caller's value came from the
// cache (or another caller's flight) rather than its own compute call. A
// compute error is returned to the caller that ran it and nothing is
// stored; its waiters are promoted one at a time, so the next one computes
// (and stores) while the rest keep waiting. On a nil cache the computation
// runs directly.
func (c *Cache) GetOrCompute(stage string, k Key, compute func() ([]byte, error)) (val []byte, hit bool, err error) {
	if c == nil {
		v, err := compute()
		return v, false, err
	}
	if e, ok := c.lookup(stage, k, hasData); ok {
		return clone(e.data), true, nil
	}
	// The leader's own result: its compute's slice (not a copy) on a miss.
	var own []byte
	var ownHit bool
	v, shared, err := c.flights.Do(context.Background(), k, func() (any, error) {
		// Re-check memory: the previous flight may have stored the entry
		// between this caller's miss and its election as leader.
		if e, ok := c.lookup(stage, k, hasData); ok {
			own, ownHit = clone(e.data), true
			return e.data, nil
		}
		if data, ok := c.fromDisk(stage, k); ok {
			own, ownHit = clone(data), true
			return data, nil
		}
		val, err := compute()
		c.mu.Lock()
		c.countMiss(stage)
		if err != nil {
			c.mu.Unlock()
			return nil, err
		}
		stored := clone(val)
		c.insertLocked(k, entry{data: stored}, int64(len(stored)))
		c.mu.Unlock()
		own = val
		return stored, nil
	})
	if err != nil {
		return nil, false, err
	}
	if shared {
		c.countShared(stage)
		return clone(v.([]byte)), true, nil
	}
	if !ownHit && c.disk != nil {
		c.disk.put(stage, k, own)
	}
	return own, ownHit, nil
}

// Touch probes for (stage, key) without computing. A memory hit bumps the
// entry's LRU position; a memory miss falls through to the disk tier and
// promotes the bytes on success. The probe counts toward the stage's
// hit/miss statistics exactly like a GetOrCompute lookup, so a warm path
// satisfied by a downstream stage's entry (e.g. a route hit short-circuiting
// the nested place lookup) can still account for the upstream stage
// truthfully instead of reporting nothing — the accounting hole behind the
// historical "place stage: 0% hit rate" in the perf records. Nil caches
// report a miss without counting.
func (c *Cache) Touch(stage string, k Key) bool {
	if c == nil {
		return false
	}
	if _, ok := c.lookup(stage, k, func(entry) bool { return true }); ok {
		return true
	}
	if _, ok := c.fromDisk(stage, k); ok {
		return true
	}
	c.mu.Lock()
	c.countMiss(stage)
	c.mu.Unlock()
	return false
}

// GetOrComputeValue is GetOrCompute for live objects that cannot round-trip
// through bytes (e.g. a generated netlist shared read-only by later stages).
// Values live in the memory tier only; size is the caller's estimate for the
// byte bound. The stored object is returned shared, so it must be treated as
// immutable by every consumer.
func (c *Cache) GetOrComputeValue(stage string, k Key, compute func() (any, int64, error)) (val any, hit bool, err error) {
	if c == nil {
		v, _, err := compute()
		return v, false, err
	}
	if e, ok := c.lookup(stage, k, hasObj); ok {
		return e.obj, true, nil
	}
	var ownHit bool
	v, shared, err := c.flights.Do(context.Background(), k, func() (any, error) {
		if e, ok := c.lookup(stage, k, hasObj); ok {
			ownHit = true
			return e.obj, nil
		}
		v, size, err := compute()
		c.mu.Lock()
		defer c.mu.Unlock()
		c.countMiss(stage)
		if err != nil {
			return nil, err
		}
		c.insertLocked(k, entry{obj: v}, size)
		return v, nil
	})
	if err != nil {
		return nil, false, err
	}
	if shared {
		c.countShared(stage)
		return v, true, nil
	}
	return v, ownHit, nil
}

// StageStats is one stage's hit/miss record.
type StageStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

// HitRate returns hits / lookups (0 when the stage saw no lookups).
func (s StageStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Stats is a point-in-time summary of a cache, for jpgbench's perf record.
type Stats struct {
	Entries   int                   `json:"entries"`
	Bytes     int64                 `json:"bytes"`
	Evictions int64                 `json:"evictions"`
	Stages    map[string]StageStats `json:"stages,omitempty"`
}

// Stats snapshots the cache (nil caches report zeroes).
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{Entries: c.mem.Len(), Bytes: c.mem.Bytes(), Evictions: c.evictions}
	if len(c.stages) > 0 {
		s.Stages = make(map[string]StageStats, len(c.stages))
		names := make([]string, 0, len(c.stages))
		for n := range c.stages {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			sc := c.stages[n]
			s.Stages[n] = StageStats{Hits: sc.hits, Misses: sc.misses}
		}
	}
	return s
}
