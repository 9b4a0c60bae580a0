//! The content-addressed compile cache.
//!
//! Two tiers: a bounded in-memory LRU map from 64-bit fingerprints (see
//! [`crate::fingerprint`]) to compile results, and an optional JSON
//! file-backed tier for cross-run reuse. Lookups report which tier served
//! them, and the cache keeps hit/miss/eviction counters so batch reports
//! can show exactly how much work was saved.

use crate::fingerprint;
use crate::json::{FromJson, JsonError, ToJson, Value};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Default memory-tier capacity used by the batch service, the CLI, and
/// `explore_parallel` when the caller doesn't size the cache explicitly.
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// Which tier satisfied a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheTier {
    /// The in-memory LRU map.
    Memory,
    /// The file-backed tier (the entry is promoted to memory on hit).
    File,
}

/// A successful lookup.
#[derive(Debug, Clone)]
pub struct CacheHit<V> {
    /// The cached result.
    pub value: V,
    /// Where it came from.
    pub tier: CacheTier,
}

/// Lookup / insertion / eviction counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from memory or file.
    pub hits: u64,
    /// Of those hits, how many came from the file tier.
    pub file_hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Entries evicted by the LRU bound.
    pub evictions: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups served from cache (0.0 when no lookups).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }
}

impl ToJson for CacheStats {
    fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("hits".into(), Value::Num(self.hits as f64)),
            ("file_hits".into(), Value::Num(self.file_hits as f64)),
            ("misses".into(), Value::Num(self.misses as f64)),
            ("insertions".into(), Value::Num(self.insertions as f64)),
            ("evictions".into(), Value::Num(self.evictions as f64)),
            // Derived, carried for human consumers; FromJson ignores it.
            ("hit_rate".into(), Value::Num(self.hit_rate())),
        ])
    }
}

impl FromJson for CacheStats {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        Ok(CacheStats {
            hits: crate::json::require_u64(value, "hits")?,
            file_hits: crate::json::require_u64(value, "file_hits")?,
            misses: crate::json::require_u64(value, "misses")?,
            insertions: crate::json::require_u64(value, "insertions")?,
            evictions: crate::json::require_u64(value, "evictions")?,
        })
    }
}

/// A bounded LRU cache from fingerprint to compile result, with an optional
/// file tier.
#[derive(Debug)]
pub struct CompileCache<V> {
    capacity: usize,
    /// Value plus last-use generation; the LRU victim is the minimum
    /// generation. Touch is O(1); the O(n) scan happens only on eviction.
    entries: HashMap<u64, (V, u64)>,
    clock: u64,
    file_entries: HashMap<u64, V>,
    file_path: Option<PathBuf>,
    stats: CacheStats,
}

impl<V: Clone> CompileCache<V> {
    /// An in-memory cache holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        CompileCache {
            capacity,
            entries: HashMap::new(),
            clock: 0,
            file_entries: HashMap::new(),
            file_path: None,
            stats: CacheStats::default(),
        }
    }

    /// Attaches a JSON file tier, loading any entries it already holds.
    /// Call [`persist`](Self::persist) to write the merged contents back.
    ///
    /// A missing file is fine (it is created on persist); a malformed file
    /// is an error rather than silent cache corruption.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] when the file exists but cannot be parsed or
    /// has entries of the wrong shape.
    pub fn with_file_tier(mut self, path: impl AsRef<Path>) -> Result<Self, JsonError>
    where
        V: FromJson,
    {
        let path = path.as_ref();
        if path.exists() {
            let text = std::fs::read_to_string(path)
                .map_err(|e| JsonError::schema(format!("cannot read {}: {e}", path.display())))?;
            let doc = Value::parse(&text)?;
            let fields = doc
                .as_obj()
                .ok_or_else(|| JsonError::schema("cache file must be a JSON object"))?;
            for (key, value) in fields {
                let fp = fingerprint::from_hex(key)
                    .ok_or_else(|| JsonError::schema(format!("bad cache key {key:?}")))?;
                self.file_entries.insert(fp, V::from_json(value)?);
            }
        }
        self.file_path = Some(path.to_path_buf());
        Ok(self)
    }

    /// Looks up `fingerprint`, consulting memory first and then the file
    /// tier (file hits are promoted into memory).
    pub fn get(&mut self, fingerprint: u64) -> Option<CacheHit<V>> {
        self.clock += 1;
        if let Some((v, generation)) = self.entries.get_mut(&fingerprint) {
            *generation = self.clock;
            let value = v.clone();
            self.stats.hits += 1;
            return Some(CacheHit {
                value,
                tier: CacheTier::Memory,
            });
        }
        if let Some(v) = self.file_entries.get(&fingerprint) {
            let value = v.clone();
            self.stats.hits += 1;
            self.stats.file_hits += 1;
            self.install(fingerprint, value.clone());
            return Some(CacheHit {
                value,
                tier: CacheTier::File,
            });
        }
        self.stats.misses += 1;
        None
    }

    /// Inserts a freshly computed result, evicting the least-recently-used
    /// entry if the memory tier is full.
    pub fn insert(&mut self, fingerprint: u64, value: V) {
        self.stats.insertions += 1;
        self.install(fingerprint, value);
    }

    fn install(&mut self, fingerprint: u64, value: V) {
        self.clock += 1;
        if self
            .entries
            .insert(fingerprint, (value, self.clock))
            .is_none()
            && self.entries.len() > self.capacity
        {
            if let Some(victim) = self
                .entries
                .iter()
                .min_by_key(|(_, (_, generation))| *generation)
                .map(|(k, _)| *k)
            {
                let evicted = self.entries.remove(&victim);
                self.stats.evictions += 1;
                // With a file tier attached, demote instead of drop: the
                // file tier is unbounded, so persist() keeps every result
                // computed during the run, not just the last `capacity`.
                if self.file_path.is_some() {
                    if let Some((value, _)) = evicted {
                        self.file_entries.insert(victim, value);
                    }
                }
            }
        }
    }

    /// Whether either tier holds `fingerprint`, without counting a lookup
    /// or touching LRU order — a probe, not a read.
    pub fn contains(&self, fingerprint: u64) -> bool {
        self.entries.contains_key(&fingerprint) || self.file_entries.contains_key(&fingerprint)
    }

    /// Entries currently in the memory tier.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the memory tier is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Writes the union of the file tier and the memory tier back to the
    /// attached file (no-op without a file tier).
    ///
    /// # Errors
    ///
    /// Returns an I/O error from writing the file.
    pub fn persist(&self) -> std::io::Result<()>
    where
        V: ToJson,
    {
        let Some(path) = &self.file_path else {
            return Ok(());
        };
        let mut merged: Vec<(u64, &V)> = self
            .file_entries
            .iter()
            .filter(|(k, _)| !self.entries.contains_key(k))
            .map(|(k, v)| (*k, v))
            .chain(self.entries.iter().map(|(k, (v, _))| (*k, v)))
            .collect();
        merged.sort_by_key(|(k, _)| *k);
        let doc = Value::Obj(
            merged
                .into_iter()
                .map(|(k, v)| (fingerprint::to_hex(k), v.to_json()))
                .collect(),
        );
        // Write-then-rename so a concurrent reader never sees a truncated
        // file (a malformed cache file is deliberately a hard error); the
        // temp name carries the pid so concurrent writers don't share it.
        let tmp = path.with_extension(format!("json.tmp.{}", std::process::id()));
        std::fs::write(&tmp, doc.render())?;
        std::fs::rename(&tmp, path)
    }
}

/// A cloneable, thread-safe handle to a [`CompileCache`], shared between
/// the worker pool's threads.
#[derive(Debug)]
pub struct SharedCache<V> {
    inner: Arc<Mutex<CompileCache<V>>>,
}

impl<V> Clone for SharedCache<V> {
    fn clone(&self) -> Self {
        SharedCache {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<V: Clone> SharedCache<V> {
    /// Wraps a cache for concurrent use.
    pub fn new(cache: CompileCache<V>) -> Self {
        SharedCache {
            inner: Arc::new(Mutex::new(cache)),
        }
    }

    /// An in-memory shared cache of the given capacity.
    pub fn in_memory(capacity: usize) -> Self {
        Self::new(CompileCache::new(capacity))
    }

    /// See [`CompileCache::get`].
    pub fn get(&self, fingerprint: u64) -> Option<CacheHit<V>> {
        self.inner.lock().expect("cache lock").get(fingerprint)
    }

    /// Like [`SharedCache::get`], but a miss leaves the counters alone:
    /// for a caller that hands a missed key on to code that makes (and
    /// counts) its own lookup, or counts it with
    /// [`SharedCache::record_miss`].
    pub fn get_if_present(&self, fingerprint: u64) -> Option<CacheHit<V>> {
        let mut cache = self.inner.lock().expect("cache lock");
        if cache.contains(fingerprint) {
            cache.get(fingerprint)
        } else {
            None
        }
    }

    /// Counts a miss for a lookup made with [`SharedCache::get_if_present`].
    pub fn record_miss(&self) {
        self.inner.lock().expect("cache lock").stats.misses += 1;
    }

    /// See [`CompileCache::insert`].
    pub fn insert(&self, fingerprint: u64, value: V) {
        self.inner
            .lock()
            .expect("cache lock")
            .insert(fingerprint, value);
    }

    /// See [`CompileCache::contains`].
    pub fn contains(&self, fingerprint: u64) -> bool {
        self.inner.lock().expect("cache lock").contains(fingerprint)
    }

    /// See [`CompileCache::stats`].
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().expect("cache lock").stats()
    }

    /// See [`CompileCache::len`].
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache lock").len()
    }

    /// Whether the memory tier is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().expect("cache lock").is_empty()
    }

    /// See [`CompileCache::persist`].
    ///
    /// # Errors
    ///
    /// Returns an I/O error from writing the file.
    pub fn persist(&self) -> std::io::Result<()>
    where
        V: ToJson,
    {
        self.inner.lock().expect("cache lock").persist()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{FromJson, JsonError, ToJson, Value};

    #[derive(Debug, Clone, PartialEq)]
    struct Payload(u64);

    impl ToJson for Payload {
        fn to_json(&self) -> Value {
            Value::Num(self.0 as f64)
        }
    }

    impl FromJson for Payload {
        fn from_json(value: &Value) -> Result<Self, JsonError> {
            value
                .as_u64()
                .map(Payload)
                .ok_or_else(|| JsonError::schema("payload must be an integer"))
        }
    }

    #[test]
    fn contains_is_a_silent_probe() {
        let mut c: CompileCache<Payload> = CompileCache::new(4);
        assert!(!c.contains(1));
        c.insert(1, Payload(10));
        assert!(c.contains(1));
        let before = c.stats();
        assert!(c.contains(1));
        assert!(!c.contains(2));
        assert_eq!(c.stats(), before, "probes leave the counters untouched");
    }

    #[test]
    fn hit_miss_and_stats() {
        let mut c: CompileCache<Payload> = CompileCache::new(4);
        assert!(c.get(1).is_none());
        c.insert(1, Payload(10));
        let hit = c.get(1).unwrap();
        assert_eq!(hit.value, Payload(10));
        assert_eq!(hit.tier, CacheTier::Memory);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c: CompileCache<Payload> = CompileCache::new(2);
        c.insert(1, Payload(1));
        c.insert(2, Payload(2));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(c.get(1).is_some());
        c.insert(3, Payload(3));
        assert_eq!(c.len(), 2);
        assert!(c.get(2).is_none(), "2 was least recently used");
        assert!(c.get(1).is_some());
        assert!(c.get(3).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut c: CompileCache<Payload> = CompileCache::new(2);
        c.insert(1, Payload(1));
        c.insert(1, Payload(9));
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(1).unwrap().value, Payload(9));
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn file_tier_roundtrip() {
        let dir = std::env::temp_dir().join("ftqc-service-cache-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tier.json");
        let _ = std::fs::remove_file(&path);

        let mut c: CompileCache<Payload> = CompileCache::new(8).with_file_tier(&path).unwrap();
        c.insert(0xabc, Payload(42));
        c.persist().unwrap();

        let mut reloaded: CompileCache<Payload> =
            CompileCache::new(8).with_file_tier(&path).unwrap();
        let hit = reloaded.get(0xabc).expect("file tier hit");
        assert_eq!(hit.value, Payload(42));
        assert_eq!(hit.tier, CacheTier::File);
        assert_eq!(reloaded.stats().file_hits, 1);
        // Promoted entries now hit memory.
        assert_eq!(reloaded.get(0xabc).unwrap().tier, CacheTier::Memory);
    }

    #[test]
    fn evicted_entries_demote_to_file_tier() {
        let dir = std::env::temp_dir().join("ftqc-service-cache-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("demote.json");
        let _ = std::fs::remove_file(&path);

        let mut c: CompileCache<Payload> = CompileCache::new(2).with_file_tier(&path).unwrap();
        for k in 0..5 {
            c.insert(k, Payload(k * 10));
        }
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 3);
        // Evicted entries are still served (from the demoted file tier)…
        assert_eq!(c.get(0).unwrap().value, Payload(0));
        // …and persist() writes all five.
        c.persist().unwrap();
        let mut reloaded: CompileCache<Payload> =
            CompileCache::new(8).with_file_tier(&path).unwrap();
        for k in 0..5 {
            assert_eq!(reloaded.get(k).unwrap().value, Payload(k * 10), "key {k}");
        }
    }

    #[test]
    fn malformed_file_tier_is_an_error() {
        let dir = std::env::temp_dir().join("ftqc-service-cache-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corrupt.json");
        std::fs::write(&path, "not json").unwrap();
        assert!(CompileCache::<Payload>::new(8)
            .with_file_tier(&path)
            .is_err());
    }

    #[test]
    fn shared_cache_is_concurrent() {
        let cache: SharedCache<Payload> = SharedCache::in_memory(64);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let cache = cache.clone();
                s.spawn(move || {
                    for i in 0..16 {
                        cache.insert(t * 100 + i, Payload(i));
                    }
                });
            }
        });
        assert_eq!(cache.len(), 64);
        assert_eq!(cache.stats().insertions, 64);
    }
}
