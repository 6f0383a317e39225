//! The byte-bounded LRU artifact cache.
//!
//! A daemon outlives any single request, so the expensive derived state an
//! [`crate::Instance`] builds lazily — the interned ideal lattice and the
//! per-policy route tables — can be kept and re-seeded into later
//! instances whose *content* matches (see [`super::fingerprint`]). Both
//! artifacts are period-independent, which is exactly why
//! `Instance::with_period` shares them; the cache extends that sharing
//! across requests and connections. (`DPA1D`'s transition skeleton is
//! not cached: only a multi-point `PeriodSweep` builds one, and a daemon
//! request never does.)
//!
//! The bound is **bytes**, not entries: one Filterbank lattice outweighs a
//! thousand route tables, so an entry-count LRU would be meaningless. Each
//! artifact reports its approximate heap footprint via the `size_bytes`
//! accessors grown on the underlying types.
//!
//! Eviction is strict least-recently-*used* (get or insert bumps a
//! monotonic tick) and therefore deterministic under serialized replay of
//! the same request sequence — the integration tests replay a scripted
//! session twice and assert the eviction logs match. The scan for the
//! minimum tick is O(entries); a daemon holds tens of artifacts, not
//! millions, so a heap would be pure ceremony.

use std::collections::HashMap;
use std::sync::Arc;

use cmp_platform::RouteTable;

use crate::instance::SharedLattice;

/// Cache key: which artifact, derived from which content.
///
/// Fingerprints (see [`super::fingerprint`]) stand in for the content
/// itself: a lattice depends on the workload only, a route table on the
/// platform only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArtifactKey {
    /// Interned ideal lattice + cut volumes for a workload.
    Lattice {
        /// [`super::fingerprint::workload_fingerprint`] of the SPG.
        workload: u64,
    },
    /// Route table for a platform under one routing policy.
    Route {
        /// [`super::fingerprint::route_platform_fingerprint`] of the
        /// platform.
        platform: u64,
        /// [`cmp_platform::RoutePolicy::index`] of the policy.
        policy: u8,
    },
}

impl ArtifactKey {
    /// Stable kind tag (`stats` output, eviction log).
    pub fn kind(&self) -> &'static str {
        match self {
            ArtifactKey::Lattice { .. } => "lattice",
            ArtifactKey::Route { .. } => "route",
        }
    }
}

impl std::fmt::Display for ArtifactKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactKey::Lattice { workload } => write!(f, "lattice/{workload:016x}"),
            ArtifactKey::Route { platform, policy } => {
                write!(f, "route/{platform:016x}/{policy}")
            }
        }
    }
}

/// A cached artifact: a shared handle to one piece of derived state.
#[derive(Clone)]
pub enum Artifact {
    /// See [`SharedLattice`].
    Lattice(Arc<SharedLattice>),
    /// See [`RouteTable`].
    Route(Arc<RouteTable>),
}

impl std::fmt::Debug for Artifact {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self {
            Artifact::Lattice(_) => "Lattice",
            Artifact::Route(_) => "Route",
        };
        write!(f, "Artifact::{kind}({} bytes)", self.size_bytes())
    }
}

impl Artifact {
    /// Approximate heap footprint, charged against the cache bound.
    pub fn size_bytes(&self) -> usize {
        match self {
            Artifact::Lattice(l) => l.size_bytes(),
            Artifact::Route(r) => r.size_bytes(),
        }
    }
}

/// Counters surfaced by the daemon's `stats` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found their artifact.
    pub hits: u64,
    /// Lookups that did not.
    pub misses: u64,
    /// Entries evicted to respect the byte bound.
    pub evictions: u64,
    /// Live entries.
    pub entries: usize,
    /// Live bytes (sum of entry `size_bytes`).
    pub bytes: usize,
    /// The configured bound.
    pub limit_bytes: usize,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; 0 when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    artifact: Artifact,
    bytes: usize,
    tick: u64,
}

/// How many evicted keys the cache remembers for diagnostics.
const EVICTION_LOG_CAP: usize = 64;

/// Byte-bounded LRU map from [`ArtifactKey`] to [`Artifact`].
pub struct ArtifactCache {
    limit_bytes: usize,
    map: HashMap<ArtifactKey, Entry>,
    bytes: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    eviction_log: Vec<ArtifactKey>,
}

impl ArtifactCache {
    /// An empty cache bounded at `limit_bytes` of artifact payload.
    pub fn new(limit_bytes: usize) -> Self {
        ArtifactCache {
            limit_bytes,
            map: HashMap::new(),
            bytes: 0,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            eviction_log: Vec::new(),
        }
    }

    /// Looks up an artifact, bumping its recency and the hit/miss
    /// counters.
    pub fn get(&mut self, key: &ArtifactKey) -> Option<Artifact> {
        self.tick += 1;
        match self.map.get_mut(key) {
            Some(e) => {
                e.tick = self.tick;
                self.hits += 1;
                Some(e.artifact.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Looks up presence **without** bumping recency or the hit/miss
    /// counters — the admission controller's service-time predictor probes
    /// a request's keys before the request is accepted, and a shed request
    /// must leave neither LRU order nor the deterministic counter sequence
    /// behind.
    pub fn contains(&self, key: &ArtifactKey) -> bool {
        self.map.contains_key(key)
    }

    /// Inserts an artifact (no-op if the key is already live — the first
    /// materialisation wins, matching the seed-slot semantics on
    /// [`crate::Instance`]), then evicts least-recently-used entries
    /// until the byte bound holds. An artifact larger than the whole
    /// bound is evicted immediately; the insert still counts. Returns
    /// whether the artifact was newly inserted (the write-behind spill
    /// trigger; a first-write-wins no-op must not re-spill).
    pub fn insert(&mut self, key: ArtifactKey, artifact: Artifact) -> bool {
        if self.map.contains_key(&key) {
            return false;
        }
        self.tick += 1;
        let bytes = artifact.size_bytes();
        self.bytes += bytes;
        self.map.insert(
            key,
            Entry {
                artifact,
                bytes,
                tick: self.tick,
            },
        );
        while self.bytes > self.limit_bytes {
            let Some((&oldest, _)) = self.map.iter().min_by_key(|(_, e)| e.tick) else {
                break;
            };
            let e = self.map.remove(&oldest).expect("key just observed");
            self.bytes -= e.bytes;
            self.evictions += 1;
            if self.eviction_log.len() == EVICTION_LOG_CAP {
                self.eviction_log.remove(0);
            }
            self.eviction_log.push(oldest);
        }
        true
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.map.len(),
            bytes: self.bytes,
            limit_bytes: self.limit_bytes,
        }
    }

    /// The most recent evictions, oldest first (capped, for diagnostics
    /// and determinism tests).
    pub fn eviction_log(&self) -> &[ArtifactKey] {
        &self.eviction_log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Instance;
    use cmp_platform::{Platform, RoutePolicy};

    /// A real (small) artifact set harvested from an instance session.
    fn artifacts() -> Vec<(ArtifactKey, Artifact)> {
        let inst = Instance::new(spg::chain(&[2e8; 6], &[1e4; 5]), Platform::paper(2, 2), 0.5);
        let lattice = inst.lattice(10_000).unwrap();
        let route = inst.route_table(RoutePolicy::Xy);
        vec![
            (
                ArtifactKey::Lattice { workload: 1 },
                Artifact::Lattice(lattice),
            ),
            (
                ArtifactKey::Route {
                    platform: 9,
                    policy: 0,
                },
                Artifact::Route(route),
            ),
        ]
    }

    #[test]
    fn hit_miss_and_byte_accounting() {
        let mut cache = ArtifactCache::new(usize::MAX);
        let arts = artifacts();
        for (k, a) in &arts {
            assert!(cache.get(k).is_none());
            cache.insert(*k, a.clone());
        }
        let expected_bytes: usize = arts.iter().map(|(_, a)| a.size_bytes()).sum();
        for (k, _) in &arts {
            assert!(cache.get(k).is_some());
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (2, 2, 0));
        assert_eq!(s.entries, 2);
        assert_eq!(s.bytes, expected_bytes);
        assert!(s.bytes > 0, "artifacts must report non-zero footprints");
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn evicts_least_recently_used_deterministically() {
        let arts = artifacts();
        // Bound that fits the two artifacts exactly — any further insert
        // must evict.
        let total: usize = arts.iter().map(|(_, a)| a.size_bytes()).sum();
        let limit = total;
        let replay = || {
            let mut cache = ArtifactCache::new(limit);
            for (k, a) in &arts {
                cache.insert(*k, a.clone());
            }
            // Touch the first key so the second becomes LRU, then insert a
            // duplicate-sized artifact under a fresh key to force eviction.
            let _ = cache.get(&arts[0].0);
            cache.insert(ArtifactKey::Lattice { workload: 77 }, arts[0].1.clone());
            cache.eviction_log().to_vec()
        };
        let a = replay();
        let b = replay();
        assert_eq!(a, b, "same request order must evict in the same order");
        assert!(!a.is_empty(), "the bound must have forced evictions");
        // arts[0] was touched after insertion, so the oldest un-touched
        // entry — arts[1] — goes first.
        assert_eq!(a[0], arts[1].0);
    }

    #[test]
    fn insert_is_first_write_wins() {
        let arts = artifacts();
        let mut cache = ArtifactCache::new(usize::MAX);
        cache.insert(arts[0].0, arts[0].1.clone());
        let before = cache.stats().bytes;
        cache.insert(arts[0].0, arts[1].1.clone());
        assert_eq!(cache.stats().bytes, before, "re-insert must be a no-op");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn oversized_artifact_is_evicted_immediately() {
        let arts = artifacts();
        let mut cache = ArtifactCache::new(1);
        cache.insert(arts[0].0, arts[0].1.clone());
        assert!(cache.is_empty());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().bytes, 0);
        assert_eq!(cache.eviction_log(), &[arts[0].0]);
    }
}
