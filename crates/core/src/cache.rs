//! The persistent, sharded, concurrently served tuning cache.
//!
//! [`TuneCache`] is the amortization layer that turns the generator into
//! a service (ROADMAP item 1): one cold autotuning search per canonical
//! key, every later request a replay. Three properties make it scale:
//!
//! * **Lock striping** — entries are spread over [`SHARD_COUNT`]
//!   independently locked shards (FxHash of the canonical key picks the
//!   shard), so threads generating *distinct* kernels never contend on a
//!   global lock. Per-shard hit/miss/insert/coalesced counters are
//!   surfaced through [`TuneCache::shard_stats`] and `Debug`.
//! * **In-flight dedupe** — the first request for a key installs an
//!   in-flight *flight* record; concurrent requests for the same key
//!   block on its condvar and receive the owner's result (or its error)
//!   instead of redundantly tuning. Exactly one search runs per unique
//!   key, counted by [`TuneCache::searches`].
//! * **Persistence** — [`TuneCache::save`] writes a versioned,
//!   length-prefixed text format atomically (write-temp + rename);
//!   [`TuneCache::load`] warm-loads it. A missing, truncated,
//!   wrong-version, or garbage file yields an *empty* cache with a
//!   logged reason — a corrupt file is never trusted and never panics.
//!   Loaded entries store the winning spec, emitted C, and the exact
//!   measurement report; the C-IR function is *re-materialized* (Stage
//!   1–3 for the one winning spec, no search, no measurement) on first
//!   hit and verified byte-identical against the persisted C — a stale
//!   file silently falls back to a fresh search.
//!
//! A stored win is shared, never copied: `Entry::Ready` and the flight
//! result hold it as an `Arc<CachedWin>`, and every [`Generated`] built
//! from it hands out the win's own `Arc<Function>` and `Arc<str>` C. A
//! hit clones one `Arc` under the shard lock and builds its `Generated`
//! after releasing it.
//!
//! The on-disk format is hand-rolled (this workspace is offline — no
//! serde): a magic/version header, one length-prefixed record per entry,
//! and a trailing `end <count>` marker so truncation is always detected:
//!
//! ```text
//! slingen-tunecache v2
//! entry
//! key <bytes>\n<key...>\n
//! spec <policy> <nu> <threshold>
//! db <hits> <misses>
//! stats <explored> <pruned> <deduped> <predicted>
//! report <bytes>\n<Report::to_wire line>\n
//! code <bytes>\n<emitted C>\n
//! end <entry-count>
//! ```
//!
//! v2 differs from v1 only in that the report line may carry the
//! optional trailing measured-time section (`... M <cycles> <ns>
//! <reps>`) written by the measured-autotuning flow; [`TuneCache::load`]
//! accepts both versions, so existing v1 files keep warm-loading
//! unchanged.

use crate::pipeline::Generated;
use crate::tuner::{TuneStats, VariantSpec};
use crate::Error;
use slingen_cir::Function;
use slingen_perf::Report;
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Number of lock stripes. A power of two so the shard index is a mask;
/// 16 stripes keep contention negligible far beyond the worker counts
/// the serve front-end uses.
pub const SHARD_COUNT: usize = 16;

const MAGIC: &str = "slingen-tunecache";
/// Version written by [`TuneCache::save`].
const VERSION: u32 = 2;
/// Versions [`TuneCache::load`] accepts: v1 files (pre-measurement) are
/// a strict subset of v2, so they parse unchanged.
const ACCEPTED_VERSIONS: [u32; 2] = [1, 2];

/// The cached outcome of one tuned generation, fully materialized.
#[derive(Debug)]
pub(crate) struct CachedWin {
    pub(crate) spec: VariantSpec,
    pub(crate) function: Arc<Function>,
    pub(crate) c_code: Arc<str>,
    pub(crate) report: Report,
    pub(crate) db_stats: (usize, usize),
    pub(crate) stats: TuneStats,
}

impl CachedWin {
    /// Build the public result of a cache hit. `coalesced` marks waiters
    /// that received this win from an in-flight search.
    pub(crate) fn to_generated(&self, coalesced: bool) -> Generated {
        Generated {
            function: Arc::clone(&self.function),
            c_code: Arc::clone(&self.c_code),
            policy: self.spec.policy,
            spec: self.spec,
            report: self.report.clone(),
            db_stats: self.db_stats,
            tuning: TuneStats { cache_hit: true, coalesced, ..self.stats },
            rep_costs: Vec::new(),
            hw_trials: Vec::new(),
        }
    }
}

/// An entry loaded from disk, not yet re-materialized: everything except
/// the C-IR function (which Stage 1–3 reproduces deterministically from
/// the spec). The report is kept in wire form because parsing it needs
/// the requesting machine model.
#[derive(Debug, Clone)]
pub(crate) struct PersistedWin {
    pub(crate) spec: VariantSpec,
    pub(crate) c_code: String,
    pub(crate) report_wire: String,
    pub(crate) db_stats: (usize, usize),
    pub(crate) stats: TuneStats,
}

/// One in-flight search: the owner publishes exactly once, waiters block
/// on the condvar.
struct Flight {
    result: Mutex<Option<Result<Arc<CachedWin>, Error>>>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Arc<Flight> {
        Arc::new(Flight { result: Mutex::new(None), cv: Condvar::new() })
    }

    fn publish(&self, r: Result<Arc<CachedWin>, Error>) {
        let mut slot = self.result.lock().unwrap();
        if slot.is_none() {
            *slot = Some(r);
        }
        self.cv.notify_all();
    }

    fn wait(&self) -> Result<Arc<CachedWin>, Error> {
        let mut slot = self.result.lock().unwrap();
        while slot.is_none() {
            slot = self.cv.wait(slot).unwrap();
        }
        slot.as_ref().unwrap().clone()
    }
}

enum Entry {
    Ready(Arc<CachedWin>),
    Persisted(Box<PersistedWin>),
    InFlight(Arc<Flight>),
}

/// One stored entry plus its recency stamp: the value of the global hit
/// clock the last time this key was looked up or (re)inserted. Save-time
/// eviction ([`TuneCache::save_capped`]) drops the smallest stamps first.
struct Slot {
    entry: Entry,
    last_hit: u64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<String, Slot>,
    hits: u64,
    misses: u64,
    inserts: u64,
    coalesced: u64,
}

/// Counters of one cache shard (see [`TuneCache::shard_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Entries currently stored in this shard.
    pub entries: usize,
    /// Lookups answered from a stored entry (in-memory or persisted).
    pub hits: u64,
    /// Lookups that found nothing and started a search.
    pub misses: u64,
    /// Completed searches/materializations stored.
    pub inserts: u64,
    /// Requests that piggybacked on an in-flight search for their key.
    pub coalesced: u64,
}

/// Aggregated counters across all shards (see [`TuneCache::totals`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheTotals {
    /// Entries currently stored.
    pub entries: usize,
    /// Lookups answered from a stored entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Completed searches/materializations stored.
    pub inserts: u64,
    /// Requests that piggybacked on an in-flight search.
    pub coalesced: u64,
    /// Full autotuning searches actually run (the in-flight dedupe and
    /// persisted-replay invariants are stated over this counter).
    pub searches: u64,
}

struct CacheShared {
    shards: [Mutex<Shard>; SHARD_COUNT],
    searches: AtomicU64,
    /// Monotone lookup clock driving the per-slot recency stamps.
    hit_clock: AtomicU64,
}

/// A shareable autotuning cache keyed by (program, machine, search space,
/// options, target). Cloning the handle shares the underlying store, so
/// one cache can serve many threads; `Options::default()` creates a
/// fresh one. See the module docs for sharding, in-flight dedupe, and
/// the persistent format.
#[derive(Clone)]
pub struct TuneCache(Arc<CacheShared>);

impl Default for TuneCache {
    fn default() -> Self {
        TuneCache(Arc::new(CacheShared {
            shards: std::array::from_fn(|_| Mutex::new(Shard::default())),
            searches: AtomicU64::new(0),
            hit_clock: AtomicU64::new(0),
        }))
    }
}

fn shard_index(key: &str) -> usize {
    use std::hash::Hasher as _;
    let mut h = slingen_cir::fxhash::FxHasher::default();
    h.write(key.as_bytes());
    (h.finish() as usize) & (SHARD_COUNT - 1)
}

impl TuneCache {
    /// An empty cache.
    pub fn new() -> Self {
        TuneCache::default()
    }

    /// (hits, misses) so far, summed over all shards.
    pub fn stats(&self) -> (usize, usize) {
        let t = self.totals();
        (t.hits as usize, t.misses as usize)
    }

    /// Per-shard counters, indexed by shard.
    pub fn shard_stats(&self) -> [ShardStats; SHARD_COUNT] {
        std::array::from_fn(|i| {
            let s = self.0.shards[i].lock().unwrap();
            ShardStats {
                entries: s.map.len(),
                hits: s.hits,
                misses: s.misses,
                inserts: s.inserts,
                coalesced: s.coalesced,
            }
        })
    }

    /// Aggregated counters across all shards.
    pub fn totals(&self) -> CacheTotals {
        let mut t = CacheTotals { searches: self.searches(), ..CacheTotals::default() };
        for s in self.shard_stats() {
            t.entries += s.entries;
            t.hits += s.hits;
            t.misses += s.misses;
            t.inserts += s.inserts;
            t.coalesced += s.coalesced;
        }
        t
    }

    /// Full autotuning searches run through this cache (one per unique
    /// key, regardless of how many requests raced on it).
    pub fn searches(&self) -> u64 {
        self.0.searches.load(Ordering::Relaxed)
    }

    /// Requests that piggybacked on an in-flight search.
    pub fn coalesced(&self) -> u64 {
        self.totals().coalesced
    }

    /// Number of cached programs.
    pub fn len(&self) -> usize {
        self.totals().entries
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all entries (stats are kept).
    pub fn clear(&self) {
        for s in &self.0.shards {
            s.lock().unwrap().map.clear();
        }
    }

    pub(crate) fn note_search(&self) {
        self.0.searches.fetch_add(1, Ordering::Relaxed);
    }

    /// Advance the hit clock and return the new stamp.
    fn touch(&self) -> u64 {
        self.0.hit_clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Resolve `key`: a stored entry is a [`Claim::Hit`]; an in-flight
    /// search blocks until its owner publishes; a vacant slot makes the
    /// caller the owner ([`Claim::Owner`]) — it must run the search (or
    /// materialize the persisted payload) and settle the [`Ticket`].
    pub(crate) fn claim(&self, key: &str) -> Claim {
        let si = shard_index(key);
        let now = self.touch();
        let flight;
        {
            let mut shard = self.0.shards[si].lock().unwrap();
            let Shard { map, hits, misses, coalesced, .. } = &mut *shard;
            match map.get_mut(key) {
                Some(slot) => {
                    slot.last_hit = now;
                    match &slot.entry {
                        Entry::Ready(win) => {
                            *hits += 1;
                            return Claim::Hit { win: Arc::clone(win), coalesced: false };
                        }
                        Entry::Persisted(_) => {
                            *hits += 1;
                            let f = Flight::new();
                            let Entry::Persisted(p) =
                                std::mem::replace(&mut slot.entry, Entry::InFlight(f.clone()))
                            else {
                                unreachable!("entry was just observed as Persisted");
                            };
                            return Claim::Owner(Ticket {
                                cache: self.clone(),
                                key: key.to_string(),
                                flight: f,
                                payload: Some(p),
                                settled: false,
                            });
                        }
                        Entry::InFlight(f) => {
                            flight = f.clone();
                            *coalesced += 1;
                        }
                    }
                }
                None => {
                    *misses += 1;
                    let f = Flight::new();
                    map.insert(
                        key.to_string(),
                        Slot { entry: Entry::InFlight(f.clone()), last_hit: now },
                    );
                    return Claim::Owner(Ticket {
                        cache: self.clone(),
                        key: key.to_string(),
                        flight: f,
                        payload: None,
                        settled: false,
                    });
                }
            }
        }
        // Coalesced: block outside the shard lock until the owner
        // publishes, then share its result (or its error).
        match flight.wait() {
            Ok(win) => Claim::Hit { win, coalesced: true },
            Err(e) => Claim::Failed(e),
        }
    }

    /// Store a freshly loaded persisted entry (load path only).
    fn insert_persisted(&self, key: String, win: PersistedWin) {
        let si = shard_index(&key);
        let slot = Slot { entry: Entry::Persisted(Box::new(win)), last_hit: self.touch() };
        self.0.shards[si].lock().unwrap().map.insert(key, slot);
    }

    /// Atomically persist every settled entry: write a temp file next to
    /// `path`, then rename over it. In-flight entries are skipped (their
    /// searches have not finished); persisted-but-unmaterialized entries
    /// round-trip unchanged. Returns the number of entries written.
    pub fn save(&self, path: &Path) -> io::Result<usize> {
        self.save_capped(path, None)
    }

    /// [`TuneCache::save`] with a size cap: when the store holds more
    /// than `max_entries` settled entries, the least-recently-hit
    /// surplus is evicted — dropped from memory *and* omitted from the
    /// file — before writing. Recency is the in-process hit clock
    /// (every lookup or insert stamps its slot), so long-running serve
    /// processes keep their hot working set and shed one-off requests.
    /// In-flight entries are never evicted (their owners hold tickets)
    /// and, as always, never persisted.
    pub fn save_capped(&self, path: &Path, max_entries: Option<usize>) -> io::Result<usize> {
        if let Some(cap) = max_entries {
            self.evict_least_recently_hit(cap);
        }
        use std::fmt::Write as _;
        let mut out = format!("{MAGIC} v{VERSION}\n");
        let mut count = 0usize;
        for shard in &self.0.shards {
            let shard = shard.lock().unwrap();
            for (key, slot) in &shard.map {
                let (spec, c_code, wire, db_stats, stats) = match &slot.entry {
                    Entry::Ready(w) => {
                        (w.spec, &*w.c_code, w.report.to_wire(), w.db_stats, w.stats)
                    }
                    Entry::Persisted(p) => {
                        (p.spec, p.c_code.as_str(), p.report_wire.clone(), p.db_stats, p.stats)
                    }
                    Entry::InFlight(_) => continue,
                };
                out.push_str("entry\n");
                let _ = write!(out, "key {}\n{key}\n", key.len());
                let _ = writeln!(out, "spec {} {} {}", spec.policy, spec.nu, spec.loop_threshold);
                let _ = writeln!(out, "db {} {}", db_stats.0, db_stats.1);
                let _ = writeln!(
                    out,
                    "stats {} {} {} {}",
                    stats.explored, stats.pruned, stats.deduped, stats.predicted
                );
                let _ = write!(out, "report {}\n{wire}\n", wire.len());
                let _ = write!(out, "code {}\n{c_code}\n", c_code.len());
                count += 1;
            }
        }
        let _ = writeln!(out, "end {count}");
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        std::fs::write(&tmp, &out)?;
        match std::fs::rename(&tmp, path) {
            Ok(()) => Ok(count),
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// Drop least-recently-hit settled entries until at most `cap`
    /// remain. The snapshot-then-remove shape keeps each shard lock
    /// short; an entry that is looked up (fresh stamp) or goes in-flight
    /// between the two steps survives — eviction is best-effort, never
    /// racing a live request.
    fn evict_least_recently_hit(&self, cap: usize) {
        let mut settled: Vec<(u64, usize, String)> = Vec::new();
        for (si, shard) in self.0.shards.iter().enumerate() {
            let shard = shard.lock().unwrap();
            for (key, slot) in &shard.map {
                if !matches!(slot.entry, Entry::InFlight(_)) {
                    settled.push((slot.last_hit, si, key.clone()));
                }
            }
        }
        if settled.len() <= cap {
            return;
        }
        settled.sort();
        let excess = settled.len() - cap;
        for (stamp, si, key) in settled.into_iter().take(excess) {
            let mut shard = self.0.shards[si].lock().unwrap();
            if let Some(slot) = shard.map.get(&key) {
                if slot.last_hit == stamp && !matches!(slot.entry, Entry::InFlight(_)) {
                    shard.map.remove(&key);
                }
            }
        }
    }

    /// Warm-load a cache file. A missing file is a normal first run
    /// (silently empty); any other load failure logs its reason to
    /// stderr and returns an empty cache — never a panic, never a hard
    /// error into `generate()`.
    pub fn load(path: &Path) -> TuneCache {
        if !path.exists() {
            return TuneCache::new();
        }
        match TuneCache::load_checked(path) {
            Ok(c) => c,
            Err(reason) => {
                eprintln!("slingen: ignoring tuning cache {}: {reason}", path.display());
                TuneCache::new()
            }
        }
    }

    /// [`TuneCache::load`] with the failure reason surfaced, for callers
    /// (and tests) that want to distinguish corruption from emptiness.
    pub fn load_checked(path: &Path) -> Result<TuneCache, String> {
        let src = std::fs::read_to_string(path).map_err(|e| format!("unreadable: {e}"))?;
        let entries = parse_cache_file(&src)?;
        let cache = TuneCache::new();
        for (key, win) in entries {
            cache.insert_persisted(key, win);
        }
        Ok(cache)
    }
}

impl fmt::Debug for TuneCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let t = self.totals();
        let mut d = f.debug_struct("TuneCache");
        d.field("entries", &t.entries)
            .field("hits", &t.hits)
            .field("misses", &t.misses)
            .field("inserts", &t.inserts)
            .field("coalesced", &t.coalesced)
            .field("searches", &t.searches);
        // per-shard counters, only for shards that saw traffic
        for (i, s) in self.shard_stats().iter().enumerate() {
            if s.entries > 0 || s.hits > 0 || s.misses > 0 {
                d.field(&format!("shard{i}"), s);
            }
        }
        d.finish()
    }
}

/// How a [`TuneCache::claim`] resolved.
pub(crate) enum Claim {
    /// The key was cached (or an in-flight search finished): here is the
    /// stored win. Only its `Arc` is cloned under the shard lock; the
    /// caller builds the [`Generated`] after the lock is released, and
    /// that `Generated` shares the win's function and C.
    Hit {
        /// The stored (or just-published) win.
        win: Arc<CachedWin>,
        /// Whether this request waited on an in-flight search for it.
        coalesced: bool,
    },
    /// Nothing cached: the caller owns the search for this key and must
    /// settle the ticket.
    Owner(Ticket),
    /// The in-flight owner this request coalesced onto failed; its error
    /// is shared.
    Failed(Error),
}

/// Ownership of one in-flight cache slot. The owner must call
/// [`Ticket::fulfill`] or [`Ticket::fail`]; dropping an unsettled ticket
/// (owner panicked) wakes all waiters with an error and vacates the slot
/// so a later request can retry.
pub(crate) struct Ticket {
    cache: TuneCache,
    key: String,
    flight: Arc<Flight>,
    payload: Option<Box<PersistedWin>>,
    settled: bool,
}

impl Ticket {
    /// The persisted payload to re-materialize, if this slot was loaded
    /// from disk.
    pub(crate) fn take_persisted(&mut self) -> Option<Box<PersistedWin>> {
        self.payload.take()
    }

    /// Publish the finished win: waiters wake with it, the slot becomes
    /// [`Entry::Ready`]. Slot and waiters share one allocation.
    pub(crate) fn fulfill(mut self, win: Arc<CachedWin>) {
        self.settled = true;
        let si = shard_index(&self.key);
        {
            let now = self.cache.touch();
            let mut shard = self.cache.0.shards[si].lock().unwrap();
            shard.inserts += 1;
            shard.map.insert(
                self.key.clone(),
                Slot { entry: Entry::Ready(Arc::clone(&win)), last_hit: now },
            );
        }
        self.flight.publish(Ok(win));
    }

    /// Publish a failure: waiters wake with the (cloned) error, the slot
    /// is vacated so the next request retries.
    pub(crate) fn fail(mut self, e: Error) {
        self.settled = true;
        self.vacate(e);
    }

    fn vacate(&self, e: Error) {
        let si = shard_index(&self.key);
        {
            let mut shard = self.cache.0.shards[si].lock().unwrap();
            if let Some(Slot { entry: Entry::InFlight(f), .. }) = shard.map.get(&self.key) {
                if Arc::ptr_eq(f, &self.flight) {
                    shard.map.remove(&self.key);
                }
            }
        }
        self.flight.publish(Err(e));
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        if !self.settled {
            self.vacate(Error::Synth(slingen_synth::SynthError::Unsupported(
                "in-flight tuning search abandoned".into(),
            )));
        }
    }
}

/// Strict parser for the cache file format (see module docs). Any
/// anomaly — bad magic, unknown version, truncation, lying lengths, a
/// missing `end` marker, an entry-count mismatch — rejects the *whole*
/// file with a reason: a damaged cache is never partially trusted.
fn parse_cache_file(src: &str) -> Result<Vec<(String, PersistedWin)>, String> {
    let mut pos = 0usize;

    fn take_line<'a>(src: &'a str, pos: &mut usize) -> Result<&'a str, String> {
        if *pos >= src.len() {
            return Err("truncated: expected a line".into());
        }
        let rest = &src[*pos..];
        let end = rest.find('\n').ok_or("truncated: unterminated line")?;
        *pos += end + 1;
        Ok(&rest[..end])
    }

    fn take_blob<'a>(src: &'a str, pos: &mut usize, len: usize) -> Result<&'a str, String> {
        let blob = src.get(*pos..*pos + len).ok_or("truncated: blob shorter than its length")?;
        *pos += len;
        match src.as_bytes().get(*pos) {
            Some(b'\n') => {
                *pos += 1;
                Ok(blob)
            }
            _ => Err("framing: blob not newline-terminated (lying length?)".into()),
        }
    }

    let header = take_line(src, &mut pos)?;
    let version = header
        .strip_prefix(MAGIC)
        .and_then(|r| r.strip_prefix(" v"))
        .ok_or_else(|| format!("bad magic: {header:?}"))?;
    let v = version.parse::<u32>().map_err(|_| format!("bad version: {version:?}"))?;
    if !ACCEPTED_VERSIONS.contains(&v) {
        return Err(format!("unsupported version {v} (accepted {ACCEPTED_VERSIONS:?})"));
    }

    let mut entries = Vec::new();
    loop {
        let line = take_line(src, &mut pos)?;
        if let Some(n) = line.strip_prefix("end ") {
            let n: usize = n.parse().map_err(|_| "bad end count")?;
            if n != entries.len() {
                return Err(format!("entry count mismatch: marker {n}, found {}", entries.len()));
            }
            if !src[pos..].trim().is_empty() {
                return Err("trailing garbage after end marker".into());
            }
            return Ok(entries);
        }
        if line != "entry" {
            return Err(format!("expected `entry` or `end`, got {line:?}"));
        }
        let klen: usize = take_line(src, &mut pos)?
            .strip_prefix("key ")
            .ok_or("expected `key <len>`")?
            .parse()
            .map_err(|_| "bad key length")?;
        let key = take_blob(src, &mut pos, klen)?.to_string();

        let spec_line = take_line(src, &mut pos)?;
        let mut t = spec_line.strip_prefix("spec ").ok_or("expected `spec`")?.split(' ');
        let policy = t.next().and_then(slingen_synth::Policy::parse).ok_or("bad spec policy")?;
        let nu: usize = t.next().and_then(|s| s.parse().ok()).ok_or("bad spec nu")?;
        let loop_threshold: usize =
            t.next().and_then(|s| s.parse().ok()).ok_or("bad spec threshold")?;
        if t.next().is_some() {
            return Err("trailing tokens on spec line".into());
        }

        let db_line = take_line(src, &mut pos)?;
        let mut t = db_line.strip_prefix("db ").ok_or("expected `db`")?.split(' ');
        let db_hits: usize = t.next().and_then(|s| s.parse().ok()).ok_or("bad db hits")?;
        let db_misses: usize = t.next().and_then(|s| s.parse().ok()).ok_or("bad db misses")?;

        let stats_line = take_line(src, &mut pos)?;
        let mut t = stats_line.strip_prefix("stats ").ok_or("expected `stats`")?.split(' ');
        let mut next_n = || -> Result<usize, String> {
            t.next().and_then(|s| s.parse().ok()).ok_or_else(|| "bad stats field".into())
        };
        let (explored, pruned, deduped, predicted) = (next_n()?, next_n()?, next_n()?, next_n()?);

        let rlen: usize = take_line(src, &mut pos)?
            .strip_prefix("report ")
            .ok_or("expected `report <len>`")?
            .parse()
            .map_err(|_| "bad report length")?;
        let report_wire = take_blob(src, &mut pos, rlen)?.to_string();

        let clen: usize = take_line(src, &mut pos)?
            .strip_prefix("code ")
            .ok_or("expected `code <len>`")?
            .parse()
            .map_err(|_| "bad code length")?;
        let c_code = take_blob(src, &mut pos, clen)?.to_string();

        entries.push((
            key,
            PersistedWin {
                spec: VariantSpec { policy, nu, loop_threshold },
                c_code,
                report_wire,
                db_stats: (db_hits, db_misses),
                stats: TuneStats {
                    explored,
                    pruned,
                    deduped,
                    predicted,
                    persisted: true,
                    ..TuneStats::default()
                },
            },
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps;
    use crate::pipeline::Options;
    use crate::tuner::{cache_key, settle};
    use std::time::{Duration, Instant};

    /// Two results of one key point at one function and one C: a
    /// regression to deep copies fails here.
    fn assert_shared(a: &Generated, b: &Generated) {
        assert!(Arc::ptr_eq(&a.function, &b.function), "the function was copied");
        assert!(Arc::ptr_eq(&a.c_code, &b.c_code), "the C was copied");
    }

    #[test]
    fn hits_share_the_stored_winner() {
        let opts = Options::default();
        let program = apps::potrf(4);
        let miss = crate::generate(&program, &opts).unwrap();
        let first = crate::generate(&program, &opts).unwrap();
        let second = crate::generate(&program, &opts).unwrap();
        assert!(!miss.tuning.cache_hit);
        assert!(first.tuning.cache_hit && second.tuning.cache_hit);
        assert_shared(&miss, &first);
        assert_shared(&first, &second);
    }

    #[test]
    fn a_coalesced_waiter_shares_its_owners_winner() {
        let opts = Options::default();
        let program = apps::potrf(4);
        // Hold the key's in-flight slot so the waiter is certain to
        // coalesce, then run the owner's side once it is waiting.
        let Claim::Owner(ticket) = opts.cache.claim(&cache_key(&program, &opts)) else {
            panic!("the first claim on an empty cache owns the key");
        };
        std::thread::scope(|s| {
            let waiter = s.spawn(|| crate::generate(&program, &opts).unwrap());
            let deadline = Instant::now() + Duration::from_secs(60);
            while opts.cache.coalesced() == 0 {
                assert!(Instant::now() < deadline, "the waiter never reached the in-flight slot");
                std::thread::yield_now();
            }
            let owner = settle(&program, &opts, ticket).unwrap();
            let waiter = waiter.join().unwrap();
            assert!(!owner.tuning.cache_hit);
            assert!(waiter.tuning.coalesced);
            assert_shared(&owner, &waiter);
        });
    }

    #[test]
    fn a_materialized_persisted_entry_is_shared_by_later_hits() {
        let program = apps::potrf(4);
        let warm = Options::default();
        crate::generate(&program, &warm).unwrap();
        let path =
            std::env::temp_dir().join(format!("slingen-cache-share-test-{}", std::process::id()));
        warm.cache.save(&path).unwrap();
        let loaded = TuneCache::load_checked(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let opts = Options { cache: loaded, ..Options::default() };
        let first_touch = crate::generate(&program, &opts).unwrap();
        let later = crate::generate(&program, &opts).unwrap();
        assert!(first_touch.tuning.persisted && later.tuning.persisted);
        assert_eq!(opts.cache.searches(), 0, "both requests replay the persisted entry");
        assert_shared(&first_touch, &later);
    }
}
