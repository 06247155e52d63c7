//! Fleet-scale multi-tenant planning: one front door over many
//! [`PerseusServer`] shards.
//!
//! A hyperscaler runs thousands of concurrent training jobs, not one. The
//! single-server design (one jobs map, one worker pool, one journal)
//! serializes on its locks and its WAL long before that scale. The
//! [`FleetServer`] keeps the per-job semantics bit-identical while scaling
//! out three ways:
//!
//! * **Sharding** — job state is partitioned across N independent
//!   [`PerseusServer`] shards by consistent hashing on the job name (a
//!   hash ring with virtual nodes, so shard loads stay balanced and the
//!   mapping is stable under job churn). Each shard has its own worker
//!   pool, lock domain, and — when durable — its own journal directory.
//! * **Admission control** — every shard bounds its in-flight
//!   characterizations; past the bound, submissions are rejected with
//!   [`ServerError::Overloaded`] and the [`crate::JobClient`] retries with
//!   jittered backoff instead of queueing unboundedly.
//! * **Per-tenant quotas** — a token bucket per [`TenantId`] rate-limits
//!   submissions, one token each, so one runaway tenant cannot starve the
//!   fleet. The bucket clock is the fleet's own deterministic
//!   clock, advanced explicitly via [`FleetServer::advance_clock`], so
//!   quota behavior is exactly testable.
//!
//! The headline cross-job optimization is the **fleet-wide plan cache**
//! ([`PlanCache`]): all shards share one cache keyed by the structural
//! [`perseus_core::PlanFingerprint`] of (profiles, DAG shape, GPU model,
//! frontier options). Large fleets are structurally repetitive — the same
//! model zoo entries at the same parallelism degrees — so most jobs hit a
//! fingerprint some earlier job already solved and skip the frontier
//! solver entirely.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use perseus_core::{FrontierOptions, PlanCache, PlanCacheStats};
use perseus_pipeline::OpKey;
use perseus_profiler::ProfileDb;
use perseus_telemetry::{
    pipeline::render_alerts_json, slo::render_slo_json, Endpoints, MetricsSnapshot,
    SnapshotBuilder, Telemetry, TelemetryServer,
};

use crate::client::{fnv64, JobClient};
use crate::server::{
    CharacterizeTicket, Deployment, JobSpec, JobStatus, PerseusServer, ServerConfig, ServerError,
};

/// An accounting principal: the team or workload class a job bills its
/// planning-service usage to. Job names are globally unique; tenants
/// group many jobs under one quota.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub String);

impl TenantId {
    /// The tenant's name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for TenantId {
    fn from(s: &str) -> TenantId {
        TenantId(s.to_string())
    }
}

impl From<String> for TenantId {
    fn from(s: String) -> TenantId {
        TenantId(s)
    }
}

/// Shape of a [`FleetServer`]: shard fan-out, per-shard admission bounds,
/// per-tenant token-bucket quotas, and the telemetry handle.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of [`PerseusServer`] shards (at least 1). For a durable
    /// fleet this must match across reopens of the same root directory —
    /// the ring, and therefore each job's home shard, is a function of it.
    pub shards: usize,
    /// Planning workers per shard.
    pub workers_per_shard: usize,
    /// In-flight characterization bound per shard; `0` = unbounded.
    pub max_inflight_per_shard: u64,
    /// Token-bucket capacity per tenant (burst). `f64::INFINITY` (the
    /// default) disables quotas entirely.
    pub tenant_burst: f64,
    /// Token refill rate per tenant per second of fleet-clock time. One
    /// profile submission costs one token.
    pub tenant_refill_per_s: f64,
    /// Virtual nodes per shard on the consistent-hash ring. More vnodes
    /// flatten the load split at the price of a larger ring.
    pub virtual_nodes: usize,
    /// Give each shard its own metric registry instead of sharing the
    /// fleet's telemetry handle. With disjoint registries,
    /// [`FleetServer::metrics_rollup`] is an exact sum over shards —
    /// every rolled-up counter equals the sum of the per-shard counters
    /// (the obs-suite gate). Off by default: one shared registry is
    /// cheaper and fine when nobody reads per-shard breakdowns.
    pub sharded_telemetry: bool,
    /// Where the fleet, its shared plan cache and its shards emit
    /// (disabled by default).
    pub telemetry: Telemetry,
}

impl Default for FleetConfig {
    /// 4 shards × 1 worker, unbounded admission, quotas disabled,
    /// 32 virtual nodes per shard, telemetry disabled.
    fn default() -> FleetConfig {
        FleetConfig {
            shards: 4,
            workers_per_shard: 1,
            max_inflight_per_shard: 0,
            tenant_burst: f64::INFINITY,
            tenant_refill_per_s: 0.0,
            virtual_nodes: 32,
            sharded_telemetry: false,
            telemetry: Telemetry::disabled(),
        }
    }
}

impl FleetConfig {
    /// Sets the shard count (floored at 1).
    pub fn shards(mut self, shards: usize) -> FleetConfig {
        self.shards = shards.max(1);
        self
    }

    /// Sets planning workers per shard (floored at 1).
    pub fn workers_per_shard(mut self, n: usize) -> FleetConfig {
        self.workers_per_shard = n.max(1);
        self
    }

    /// Sets the per-shard in-flight characterization bound (`0` =
    /// unbounded).
    pub fn max_inflight_per_shard(mut self, limit: u64) -> FleetConfig {
        self.max_inflight_per_shard = limit;
        self
    }

    /// Enables per-tenant quotas: `burst` tokens of capacity refilling at
    /// `refill_per_s` tokens per fleet-clock second.
    pub fn tenant_quota(mut self, burst: f64, refill_per_s: f64) -> FleetConfig {
        self.tenant_burst = burst;
        self.tenant_refill_per_s = refill_per_s;
        self
    }

    /// Sets virtual nodes per shard on the hash ring (floored at 1).
    pub fn virtual_nodes(mut self, vnodes: usize) -> FleetConfig {
        self.virtual_nodes = vnodes.max(1);
        self
    }

    /// Gives each shard a private metric registry so
    /// [`FleetServer::metrics_rollup`] sums exactly over shards.
    pub fn sharded_telemetry(mut self, on: bool) -> FleetConfig {
        self.sharded_telemetry = on;
        self
    }

    /// Sets the telemetry handle the fleet, its plan cache and its shards
    /// emit through.
    pub fn telemetry(mut self, telemetry: Telemetry) -> FleetConfig {
        self.telemetry = telemetry;
        self
    }

    /// The [`ServerConfig`] of every shard: the per-shard worker count and
    /// in-flight bound, the shared plan cache, and the fleet's telemetry
    /// handle — or, under `sharded_telemetry`, a private registry so the
    /// rollup sums exactly over shards. The plan cache always keeps the
    /// fleet handle.
    fn shard_config(&self, cache: &Arc<PlanCache>) -> ServerConfig {
        ServerConfig {
            workers: self.workers_per_shard.max(1),
            telemetry: if self.sharded_telemetry && self.telemetry.is_enabled() {
                Telemetry::enabled()
            } else {
                self.telemetry.clone()
            },
            plan_cache: Some(Arc::clone(cache)),
            max_inflight: self.max_inflight_per_shard,
            ..ServerConfig::default()
        }
    }
}

/// One tenant's token bucket.
#[derive(Debug, Clone, Copy)]
struct TokenBucket {
    tokens: f64,
    /// Fleet-clock time of the last refill.
    last_s: f64,
}

/// All quota state behind one lock: the fleet clock plus every tenant's
/// bucket. Submissions touch it once (a refill + a compare) — far cheaper
/// than the characterization they gate.
#[derive(Debug)]
struct TenantState {
    clock_s: f64,
    buckets: HashMap<TenantId, TokenBucket>,
}

/// A point-in-time snapshot of fleet accounting. The counters satisfy
/// `submitted == admitted + rejected_quota + rejected_overloaded +
/// rejected_other` — the concurrency stress tests pin that invariant.
#[derive(Debug, Clone)]
pub struct FleetStats {
    /// Profile submissions offered to the fleet.
    pub submitted: u64,
    /// Submissions accepted onto a shard's worker pool.
    pub admitted: u64,
    /// Submissions rejected by a tenant's token bucket.
    pub rejected_quota: u64,
    /// Submissions rejected by shard admission control.
    pub rejected_overloaded: u64,
    /// Submissions rejected for any other reason (unknown job, invalid
    /// profiles, …).
    pub rejected_other: u64,
    /// Shared plan-cache counters.
    pub cache: PlanCacheStats,
}

/// Per-tenant request accounting, kept outside the metric registry so a
/// disabled-telemetry fleet still has exact numbers. Surfaced as
/// `perseus_fleet_tenant_*_total{tenant=…}` in the rollup.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Profile submissions offered by this tenant.
    pub submitted: u64,
    /// Submissions accepted onto a shard.
    pub admitted: u64,
    /// Submissions rejected (quota, overload, or shard error).
    pub rejected: u64,
    /// Status lookups made by this tenant.
    pub lookups: u64,
}

/// The fleet front door: routes per-job operations to their home shard,
/// enforces tenant quotas and shard admission bounds, and shares one
/// cross-job [`PlanCache`] across every shard. See the module docs for
/// the design.
pub struct FleetServer {
    cfg: FleetConfig,
    shards: Vec<Arc<PerseusServer>>,
    /// Consistent-hash ring: `(point, shard)` sorted by point. A job
    /// lands on the first shard whose point is ≥ `fnv64(job)`, wrapping.
    ring: Vec<(u64, usize)>,
    cache: Arc<PlanCache>,
    tenants: Mutex<TenantState>,
    tenant_stats: Mutex<HashMap<TenantId, TenantStats>>,
    submitted: AtomicU64,
    admitted: AtomicU64,
    rejected_quota: AtomicU64,
    rejected_overloaded: AtomicU64,
    rejected_other: AtomicU64,
}

impl FleetServer {
    /// An in-memory fleet (no durability) shaped by `cfg`.
    pub fn new(cfg: FleetConfig) -> FleetServer {
        let cache = Arc::new(PlanCache::with_telemetry(cfg.telemetry.clone()));
        let shards = (0..cfg.shards.max(1))
            .map(|_| Arc::new(PerseusServer::new(cfg.shard_config(&cache))))
            .collect();
        FleetServer::assemble(cfg, shards, cache)
    }

    /// Opens (or recovers) a durable fleet rooted at `root`: shard `i`
    /// journals under `root/shard-<i>/`, and the shared plan cache keeps
    /// its own write-ahead log at `root/plan-cache.wal`. Reopening after
    /// a crash recovers every shard *and* the cache; journal-tail
    /// re-characterizations that hit recovered cache entries skip the
    /// solver (counted as `recharacterizations_avoided`).
    ///
    /// `cfg.shards` must match across reopens of the same root — the hash
    /// ring, and therefore each job's home shard, is a function of it.
    ///
    /// # Errors
    ///
    /// [`ServerError::Store`] if the root or a shard directory cannot be
    /// created or a journal cannot be opened.
    pub fn open(root: impl AsRef<Path>, cfg: FleetConfig) -> Result<FleetServer, ServerError> {
        let root = root.as_ref();
        std::fs::create_dir_all(root).map_err(perseus_store::StoreError::Io)?;
        let cache = Arc::new(PlanCache::open_with(
            root.join("plan-cache.wal"),
            cfg.telemetry.clone(),
        )?);
        let shards = (0..cfg.shards.max(1))
            .map(|i| {
                PerseusServer::open(root.join(format!("shard-{i}")), cfg.shard_config(&cache))
                    .map(Arc::new)
            })
            .collect::<Result<_, _>>()?;
        Ok(FleetServer::assemble(cfg, shards, cache))
    }

    fn assemble(
        cfg: FleetConfig,
        shards: Vec<Arc<PerseusServer>>,
        cache: Arc<PlanCache>,
    ) -> FleetServer {
        let mut ring = Vec::with_capacity(shards.len() * cfg.virtual_nodes.max(1));
        for (i, _) in shards.iter().enumerate() {
            for v in 0..cfg.virtual_nodes.max(1) {
                ring.push((fnv64(format!("shard-{i}-{v}").as_bytes()), i));
            }
        }
        ring.sort_unstable();
        FleetServer {
            cfg,
            shards,
            ring,
            cache,
            tenants: Mutex::new(TenantState {
                clock_s: 0.0,
                buckets: HashMap::new(),
            }),
            tenant_stats: Mutex::new(HashMap::new()),
            submitted: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            rejected_quota: AtomicU64::new(0),
            rejected_overloaded: AtomicU64::new(0),
            rejected_other: AtomicU64::new(0),
        }
    }

    /// The home shard index for `job` — first ring point ≥ the job's
    /// hash, wrapping around. Stable for the fleet's lifetime.
    pub fn shard_of(&self, job: &str) -> usize {
        let h = fnv64(job.as_bytes());
        let i = self.ring.partition_point(|&(p, _)| p < h);
        self.ring[if i == self.ring.len() { 0 } else { i }].1
    }

    /// Direct handle to shard `idx` (tests and per-shard observability).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn shard(&self, idx: usize) -> &Arc<PerseusServer> {
        &self.shards[idx]
    }

    /// All shards, index-aligned with [`FleetServer::shard_of`].
    pub fn shards(&self) -> &[Arc<PerseusServer>] {
        &self.shards
    }

    /// The shared cross-job plan cache.
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.cache
    }

    /// This fleet's configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// Advances the fleet clock by `dt_s` seconds; tenant token buckets
    /// refill against this clock. Explicit, so quota tests are exact.
    pub fn advance_clock(&self, dt_s: f64) {
        if dt_s > 0.0 {
            self.tenants.lock().clock_s += dt_s;
        }
    }

    /// Charges one submission token to `tenant`, refilling the bucket
    /// first.
    fn charge(&self, tenant: &TenantId) -> Result<(), ServerError> {
        if self.cfg.tenant_burst.is_infinite() {
            return Ok(());
        }
        let mut state = self.tenants.lock();
        let clock = state.clock_s;
        let bucket = state.buckets.entry(tenant.clone()).or_insert(TokenBucket {
            tokens: self.cfg.tenant_burst,
            last_s: clock,
        });
        let dt = (clock - bucket.last_s).max(0.0);
        bucket.tokens =
            (bucket.tokens + dt * self.cfg.tenant_refill_per_s).min(self.cfg.tenant_burst);
        bucket.last_s = clock;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            Ok(())
        } else {
            if self.cfg.telemetry.is_enabled() {
                self.cfg
                    .telemetry
                    .counter("perseus_fleet_quota_rejections_total")
                    .inc();
            }
            Err(ServerError::QuotaExhausted {
                tenant: tenant.0.clone(),
            })
        }
    }

    /// Registers a job on its home shard. Registration is not quota
    /// charged — it is cheap and idempotent-ish (duplicate names error).
    ///
    /// # Errors
    ///
    /// [`ServerError::DuplicateJob`] if the name is taken on its shard.
    pub fn register_job(&self, spec: JobSpec) -> Result<(), ServerError> {
        self.shards[self.shard_of(&spec.name)].register_job(spec)
    }

    /// Submits profiles for `name` on behalf of `tenant`: charges the
    /// tenant's token bucket, then routes to the home shard, which
    /// enforces its own in-flight bound and consults the shared plan
    /// cache before solving.
    ///
    /// # Errors
    ///
    /// [`ServerError::QuotaExhausted`] when the tenant's bucket is dry;
    /// [`ServerError::Overloaded`] when the shard is at its in-flight
    /// bound; shard-level errors (unknown job, invalid profiles)
    /// otherwise. Every outcome is counted in [`FleetStats`].
    pub fn submit_profiles(
        &self,
        tenant: &TenantId,
        name: &str,
        profiles: ProfileDb<OpKey>,
        opts: &FrontierOptions,
    ) -> Result<CharacterizeTicket, ServerError> {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        self.tenant_stat(tenant, |s| s.submitted += 1);
        if let Err(e) = self.charge(tenant) {
            self.rejected_quota.fetch_add(1, Ordering::Relaxed);
            self.tenant_stat(tenant, |s| s.rejected += 1);
            return Err(e);
        }
        match self.shards[self.shard_of(name)].submit_profiles(name, profiles, opts) {
            Ok(ticket) => {
                self.admitted.fetch_add(1, Ordering::Relaxed);
                self.tenant_stat(tenant, |s| s.admitted += 1);
                Ok(ticket)
            }
            Err(e @ ServerError::Overloaded { .. }) => {
                self.rejected_overloaded.fetch_add(1, Ordering::Relaxed);
                self.tenant_stat(tenant, |s| s.rejected += 1);
                Err(e)
            }
            Err(e) => {
                self.rejected_other.fetch_add(1, Ordering::Relaxed);
                self.tenant_stat(tenant, |s| s.rejected += 1);
                Err(e)
            }
        }
    }

    /// The unified status of `name`, counted against `tenant`. Lookups
    /// are never quota charged.
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownJob`] for unregistered names.
    pub fn job_status(&self, tenant: &TenantId, name: &str) -> Result<JobStatus, ServerError> {
        self.tenant_stat(tenant, |s| s.lookups += 1);
        self.shards[self.shard_of(name)].job_status(name)
    }

    /// Applies `f` to `tenant`'s accounting entry, creating it on first
    /// touch.
    fn tenant_stat(&self, tenant: &TenantId, f: impl FnOnce(&mut TenantStats)) {
        f(self.tenant_stats.lock().entry(tenant.clone()).or_default())
    }

    /// Routes a straggler notification to the job's home shard. Never
    /// quota charged: straggler reaction is the latency-critical path —
    /// throttling it would burn energy, the opposite of the point.
    ///
    /// # Errors
    ///
    /// As [`PerseusServer::set_straggler`].
    pub fn set_straggler(
        &self,
        name: &str,
        gpu_id: usize,
        delay_s: f64,
        degree: f64,
    ) -> Result<Option<Deployment>, ServerError> {
        self.shards[self.shard_of(name)].set_straggler(name, gpu_id, delay_s, degree)
    }

    /// A [`JobClient`] bound to `job`'s home shard with the default
    /// [`ClientConfig`](crate::ClientConfig) — retries ride out both
    /// `Overloaded` pushback and transient faults with per-job-seeded
    /// jitter.
    pub fn client_for(&self, job: impl Into<String>) -> JobClient {
        let job = job.into();
        JobClient::new(Arc::clone(&self.shards[self.shard_of(&job)]), job)
    }

    /// Fleet-wide accounting snapshot; see [`FleetStats`] for the sum
    /// invariant it maintains.
    pub fn stats(&self) -> FleetStats {
        FleetStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            admitted: self.admitted.load(Ordering::Relaxed),
            rejected_quota: self.rejected_quota.load(Ordering::Relaxed),
            rejected_overloaded: self.rejected_overloaded.load(Ordering::Relaxed),
            rejected_other: self.rejected_other.load(Ordering::Relaxed),
            cache: self.cache.stats(),
        }
    }

    /// Per-shard state fingerprints, index-aligned with
    /// [`FleetServer::shards`] — the stress tests compare these against a
    /// sequential replay of each shard's admitted events.
    pub fn state_fingerprints(&self) -> Vec<Vec<u8>> {
        self.shards.iter().map(|s| s.state_fingerprint()).collect()
    }

    /// Remaining tokens in `tenant`'s bucket after refilling to the
    /// current fleet clock (observability; `None` if the tenant has never
    /// been charged or quotas are disabled).
    pub fn tenant_tokens(&self, tenant: &TenantId) -> Option<f64> {
        if self.cfg.tenant_burst.is_infinite() {
            return None;
        }
        let mut state = self.tenants.lock();
        let clock = state.clock_s;
        let refill = self.cfg.tenant_refill_per_s;
        let burst = self.cfg.tenant_burst;
        state.buckets.get_mut(tenant).map(|b| {
            let dt = (clock - b.last_s).max(0.0);
            b.tokens = (b.tokens + dt * refill).min(burst);
            b.last_s = clock;
            b.tokens
        })
    }

    /// Per-tenant request accounting, sorted by tenant id for stable
    /// output.
    pub fn tenant_stats(&self) -> Vec<(TenantId, TenantStats)> {
        let mut out: Vec<(TenantId, TenantStats)> = self
            .tenant_stats
            .lock()
            .iter()
            .map(|(t, s)| (t.clone(), *s))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Merges every shard's metric snapshot with the fleet's own counters
    /// (admission, quota, plan cache, per-tenant breakdown) into one
    /// [`MetricsSnapshot`] — what the fleet's `/metrics` route serves.
    ///
    /// Counters and histograms merge exactly: same-keyed scalars sum,
    /// same-keyed histograms sum bucket-wise. Shards sharing one registry
    /// (the default) are deduplicated by [`Telemetry::registry_id`] so
    /// nothing is double-counted; under
    /// [`FleetConfig::sharded_telemetry`] the registries are disjoint and
    /// every rolled-up counter equals the sum of the per-shard counters.
    pub fn metrics_rollup(&self) -> MetricsSnapshot {
        let mut seen = std::collections::HashSet::new();
        let mut snaps: Vec<MetricsSnapshot> = Vec::with_capacity(self.shards.len() + 2);
        let tel = &self.cfg.telemetry;
        if tel.is_enabled() && seen.insert(tel.registry_id()) {
            snaps.push(tel.snapshot());
        }
        for shard in &self.shards {
            let tel = shard.telemetry();
            if tel.is_enabled() && seen.insert(tel.registry_id()) {
                snaps.push(tel.snapshot());
            }
        }
        let mut fleet = SnapshotBuilder::new();
        let stats = self.stats();
        fleet
            .scalar("perseus_fleet_submitted_total", &[], stats.submitted as f64)
            .scalar("perseus_fleet_admitted_total", &[], stats.admitted as f64)
            .scalar(
                "perseus_fleet_rejected_quota_total",
                &[],
                stats.rejected_quota as f64,
            )
            .scalar(
                "perseus_fleet_rejected_overloaded_total",
                &[],
                stats.rejected_overloaded as f64,
            )
            .scalar(
                "perseus_fleet_rejected_other_total",
                &[],
                stats.rejected_other as f64,
            )
            .scalar(
                "perseus_fleet_cache_hits_total",
                &[],
                stats.cache.hits as f64,
            )
            .scalar(
                "perseus_fleet_cache_misses_total",
                &[],
                stats.cache.misses as f64,
            )
            .scalar(
                "perseus_fleet_cache_inserts_total",
                &[],
                stats.cache.inserts as f64,
            )
            .scalar(
                "perseus_fleet_cache_invalidations_total",
                &[],
                stats.cache.invalidations as f64,
            )
            .scalar(
                "perseus_fleet_cache_recovered_entries",
                &[],
                stats.cache.recovered_entries as f64,
            )
            .scalar(
                "perseus_fleet_cache_entries",
                &[],
                stats.cache.entries as f64,
            )
            .scalar("perseus_fleet_shards", &[], self.shards.len() as f64);
        // Replication posture, aggregated across shards. Gated on actual
        // replication activity so an all-leader fleet (the common case,
        // and everything the golden fixtures cover) emits byte-identical
        // rollups with or without this block.
        let mut followers = 0u64;
        let mut repl = crate::ReplicationStats::default();
        for shard in &self.shards {
            if shard.role() == crate::Role::Follower {
                followers += 1;
            }
            let s = shard.replication_stats();
            repl.shipped += s.shipped;
            repl.applied += s.applied;
            repl.lag_records += s.lag_records;
            repl.lag_bytes += s.lag_bytes;
        }
        if followers > 0 || repl != crate::ReplicationStats::default() {
            fleet
                .scalar("perseus_replication_followers", &[], followers as f64)
                .scalar(
                    "perseus_replication_shipped_records",
                    &[],
                    repl.shipped as f64,
                )
                .scalar(
                    "perseus_replication_applied_records",
                    &[],
                    repl.applied as f64,
                )
                .scalar(
                    "perseus_replication_lag_records",
                    &[],
                    repl.lag_records as f64,
                )
                .scalar("perseus_replication_lag_bytes", &[], repl.lag_bytes as f64);
        }
        for (tenant, s) in self.tenant_stats() {
            let labels = &[("tenant", tenant.as_str())];
            fleet
                .scalar(
                    "perseus_fleet_tenant_submitted_total",
                    labels,
                    s.submitted as f64,
                )
                .scalar(
                    "perseus_fleet_tenant_admitted_total",
                    labels,
                    s.admitted as f64,
                )
                .scalar(
                    "perseus_fleet_tenant_rejected_total",
                    labels,
                    s.rejected as f64,
                )
                .scalar(
                    "perseus_fleet_tenant_lookups_total",
                    labels,
                    s.lookups as f64,
                );
        }
        snaps.push(fleet.build());
        MetricsSnapshot::merge_all(&snaps)
    }

    /// Serves the fleet's observability over HTTP: `/metrics` is the
    /// [`FleetServer::metrics_rollup`], `/alerts` and `/slo` concatenate
    /// every shard's pipeline output (shard order, so output is stable).
    /// Bind port 0 for an ephemeral port.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn serve_telemetry(
        self: &Arc<Self>,
        addr: impl std::net::ToSocketAddrs,
    ) -> std::io::Result<TelemetryServer> {
        let fleet = Arc::clone(self);
        let alerts_fleet = Arc::clone(self);
        let slo_fleet = Arc::clone(self);
        let endpoints = Endpoints::default()
            .with_metrics(move || fleet.metrics_rollup().render())
            .with_alerts(move || {
                let alerts: Vec<_> = alerts_fleet
                    .shards
                    .iter()
                    .flat_map(|s| s.obs().alerts())
                    .collect();
                render_alerts_json(&alerts)
            })
            .with_slo(move || {
                let statuses: Vec<_> = slo_fleet
                    .shards
                    .iter()
                    .flat_map(|s| s.obs().slo_status())
                    .collect();
                render_slo_json(&statuses)
            });
        TelemetryServer::bind(addr, endpoints)
    }
}
