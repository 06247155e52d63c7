//! The fleet-wide cross-job plan cache: one shared [`ParetoFrontier`] per
//! [`PlanFingerprint`].
//!
//! Planning is deterministic in its structural inputs (see
//! [`crate::fingerprint`]), so a fleet of jobs drawn from a handful of
//! (model, stages, schedule, GPU) structures re-derives the same frontier
//! over and over. The cache turns that redundancy into a lookup: a
//! fingerprint hit returns the stored frontier and skips the frontier
//! solver entirely, extending the per-job `artifact_reuses` machinery of
//! [`crate::FrontierSolver`] fleet-wide.
//!
//! # Semantics
//!
//! * **Content addressed.** The fingerprint hashes every input the
//!   frontier depends on, so an entry can never go stale, only unused:
//!   drifted profiles hash to a *new* fingerprint and miss. A server that
//!   re-characterizes a job drops the entry under the job's old
//!   fingerprint with [`PlanCache::invalidate`], which bounds memory; no
//!   other job's entry is touched.
//! * **One copy.** An entry is the `Arc` it was inserted with: the solving
//!   job, every job that hits, and the cache share one allocation.
//! * **First insert wins.** Two racing misses for the same fingerprint
//!   both solve; whichever inserts first sticks. Both produced
//!   bit-identical frontiers (determinism), so the race is observable only
//!   in the counters — never in what a lookup returns.
//! * **Durability.** A cache opened with [`PlanCache::open`] journals
//!   every insert and invalidation to its own write-ahead log (the same
//!   checksummed, torn-tail-truncating format as the server's), encoding
//!   each frontier straight from the shared `Arc`. Reopening replays the
//!   log, so a crash-and-restart resumes serving hits without re-running a
//!   single solve; recovered entries are counted in
//!   [`PlanCacheStats::recovered_entries`].
//!
//! Lookups and inserts cost one short mutex hold on a `HashMap`.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use perseus_store::{ByteReader, ByteWriter, Journal, Persist, StoreError};
use perseus_telemetry::Telemetry;

use crate::fingerprint::PlanFingerprint;
use crate::frontier::ParetoFrontier;

/// Map + journal, guarded together so a journaled event and the map
/// mutation it describes are atomic with respect to other writers.
struct CacheInner {
    entries: HashMap<PlanFingerprint, Arc<ParetoFrontier>>,
    /// Write-ahead log; `None` for an in-memory cache.
    journal: Option<Journal>,
}

impl CacheInner {
    /// Appends `event` to the log of a durable cache. An unwritable
    /// journal degrades durability, never serving.
    fn log(&mut self, event: CacheEvent) {
        if let Some(journal) = self.journal.as_mut() {
            let _ = journal.append(&event.to_bytes());
        }
    }
}

/// One journaled cache mutation.
///
/// Tags 0, 2 and 3 belonged to the epoch-stamped format this one
/// replaced, and tag 4 was an insert keyed by the byte-at-a-time hash
/// that [`crate::content_hash`] replaced: such a key can never be looked
/// up again. They decode as corrupt, so replay of an old log stops at its
/// first such record and keeps what came before.
enum CacheEvent {
    /// A frontier entered the cache.
    Insert {
        fp: PlanFingerprint,
        frontier: Arc<ParetoFrontier>,
    },
    /// A fingerprint was invalidated.
    Invalidate { fp: PlanFingerprint },
}

const INVALIDATE_TAG: u8 = 1;
const INSERT_TAG: u8 = 5;

impl Persist for CacheEvent {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            CacheEvent::Insert { fp, frontier } => {
                w.put_u8(INSERT_TAG);
                fp.encode(w);
                frontier.encode(w);
            }
            CacheEvent::Invalidate { fp } => {
                w.put_u8(INVALIDATE_TAG);
                fp.encode(w);
            }
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        match r.get_u8()? {
            INSERT_TAG => Ok(CacheEvent::Insert {
                fp: PlanFingerprint::decode(r)?,
                frontier: Arc::new(ParetoFrontier::decode(r)?),
            }),
            INVALIDATE_TAG => Ok(CacheEvent::Invalidate {
                fp: PlanFingerprint::decode(r)?,
            }),
            t => Err(StoreError::corrupt(format!("invalid CacheEvent tag {t}"))),
        }
    }
}

/// Counters of one [`PlanCache`], all monotone except `entries`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups that found a frontier.
    pub hits: u64,
    /// Lookups that found nothing (the caller then solves).
    pub misses: u64,
    /// Frontiers inserted (first-wins; a lost insert race does not count).
    pub inserts: u64,
    /// Entries dropped by [`PlanCache::invalidate`].
    pub invalidations: u64,
    /// Entries restored by journal replay at open.
    pub recovered_entries: u64,
    /// Live entries right now.
    pub entries: u64,
}

/// The fleet-wide plan cache. `Send + Sync`; share it behind an `Arc`
/// across every shard of a fleet.
pub struct PlanCache {
    inner: Mutex<CacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    invalidations: AtomicU64,
    recovered: AtomicU64,
    telemetry: Telemetry,
}

impl Default for PlanCache {
    fn default() -> PlanCache {
        PlanCache::new()
    }
}

impl PlanCache {
    /// An empty in-memory cache (no journal), telemetry disabled.
    pub fn new() -> PlanCache {
        PlanCache::with_telemetry(Telemetry::disabled())
    }

    /// [`PlanCache::new`] emitting `perseus_plan_cache_{hits,misses,inserts}_total`
    /// through `telemetry`.
    pub fn with_telemetry(telemetry: Telemetry) -> PlanCache {
        PlanCache {
            inner: Mutex::new(CacheInner {
                entries: HashMap::new(),
                journal: None,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            recovered: AtomicU64::new(0),
            telemetry,
        }
    }

    /// Opens (or creates) a durable cache journaled at `path`, telemetry
    /// disabled. Existing records are replayed: inserts restore entries,
    /// invalidations re-apply, and a torn tail is truncated exactly like
    /// the server's journal. A record whose frame passed CRC but whose
    /// payload fails to decode — a record of the pre-content-addressed
    /// format included — stops the replay; everything before it is kept,
    /// and the log is rewritten as those entries so later inserts replay.
    ///
    /// # Errors
    ///
    /// [`StoreError`] if the journal cannot be opened or rewritten.
    pub fn open(path: impl AsRef<Path>) -> Result<PlanCache, StoreError> {
        PlanCache::open_with(path, Telemetry::disabled())
    }

    /// [`PlanCache::open`] with a telemetry handle.
    ///
    /// # Errors
    ///
    /// As [`PlanCache::open`].
    pub fn open_with(
        path: impl AsRef<Path>,
        telemetry: Telemetry,
    ) -> Result<PlanCache, StoreError> {
        let (mut journal, records) = Journal::open(path.as_ref())?;
        let cache = PlanCache::with_telemetry(telemetry);
        {
            let mut inner = cache.inner.lock().expect("plan cache lock");
            let mut replayed = 0;
            for rec in &records {
                let Ok(event) = CacheEvent::from_bytes(&rec.payload) else {
                    break;
                };
                replayed += 1;
                match event {
                    CacheEvent::Insert { fp, frontier } => {
                        inner.entries.entry(fp).or_insert(frontier);
                    }
                    CacheEvent::Invalidate { fp } => {
                        inner.entries.remove(&fp);
                    }
                }
            }
            // Net entries that survived replay (inserts minus
            // invalidations), not raw insert records: the number callers
            // can actually hit after recovery.
            cache
                .recovered
                .store(inner.entries.len() as u64, Ordering::Relaxed);
            if replayed < records.len() {
                // Replay stopped at a record it cannot read. Records
                // appended behind it would never replay either, so the log
                // restarts as the entries recovered before it.
                journal.compact_below(records[records.len() - 1].seq)?;
                for (&fp, frontier) in &inner.entries {
                    let frontier = Arc::clone(frontier);
                    journal.append(&CacheEvent::Insert { fp, frontier }.to_bytes())?;
                }
            }
            inner.journal = Some(journal);
        }
        Ok(cache)
    }

    /// Looks up the frontier under `fp`. A hit returns the shared `Arc`
    /// every other hit and the solving job hold — no copy; a miss returns
    /// `None` and the caller solves (then [`PlanCache::insert`]s).
    pub fn get(&self, fp: PlanFingerprint) -> Option<Arc<ParetoFrontier>> {
        let hit = self
            .inner
            .lock()
            .expect("plan cache lock")
            .entries
            .get(&fp)
            .cloned();
        let (counter, metric) = match hit {
            Some(_) => (&self.hits, "perseus_plan_cache_hits_total"),
            None => (&self.misses, "perseus_plan_cache_misses_total"),
        };
        counter.fetch_add(1, Ordering::Relaxed);
        if self.telemetry.is_enabled() {
            self.telemetry.counter(metric).inc();
        }
        hit
    }

    /// Stores `frontier` under `fp`, journaling it if the cache is
    /// durable, and returns the stored `Arc`. First insert wins: if the
    /// fingerprint is already present (a racing solver got there first),
    /// the existing entry is kept, nothing is journaled, and the existing
    /// `Arc` is returned — determinism makes the two frontiers
    /// bit-identical anyway.
    pub fn insert(
        &self,
        fp: PlanFingerprint,
        frontier: Arc<ParetoFrontier>,
    ) -> Arc<ParetoFrontier> {
        let mut inner = self.inner.lock().expect("plan cache lock");
        if let Some(existing) = inner.entries.get(&fp) {
            return Arc::clone(existing);
        }
        inner.log(CacheEvent::Insert {
            fp,
            frontier: Arc::clone(&frontier),
        });
        inner.entries.insert(fp, Arc::clone(&frontier));
        drop(inner);
        self.inserts.fetch_add(1, Ordering::Relaxed);
        if self.telemetry.is_enabled() {
            self.telemetry
                .counter("perseus_plan_cache_inserts_total")
                .inc();
        }
        frontier
    }

    /// Drops the entry under `fp`, if any. Called by a server when a job
    /// re-characterizes onto a new fingerprint: nothing else references
    /// the old one on that job's behalf, so the entry goes rather than
    /// lingering forever.
    pub fn invalidate(&self, fp: PlanFingerprint) {
        let mut inner = self.inner.lock().expect("plan cache lock");
        if inner.entries.remove(&fp).is_some() {
            inner.log(CacheEvent::Invalidate { fp });
            self.invalidations.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Every cached fingerprint, sorted (deterministic for tests).
    pub fn fingerprints(&self) -> Vec<PlanFingerprint> {
        let inner = self.inner.lock().expect("plan cache lock");
        let mut fps: Vec<PlanFingerprint> = inner.entries.keys().copied().collect();
        fps.sort();
        fps
    }

    /// Current counters.
    pub fn stats(&self) -> PlanCacheStats {
        let entries = self.inner.lock().expect("plan cache lock").entries.len() as u64;
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            recovered_entries: self.recovered.load(Ordering::Relaxed),
            entries,
        }
    }

    /// Hit rate over all lookups so far (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let hits = self.hits.load(Ordering::Relaxed) as f64;
        let misses = self.misses.load(Ordering::Relaxed) as f64;
        if hits + misses == 0.0 {
            0.0
        } else {
            hits / (hits + misses)
        }
    }
}
