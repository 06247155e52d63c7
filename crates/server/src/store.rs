//! Durable server state: the journal event vocabulary, the snapshot
//! schema, and the [`Store`] handle gluing the server to `perseus-store`.
//!
//! # What gets journaled
//!
//! One [`JournalEvent`] per state *mutation*, appended inside the same
//! critical section that performs the mutation (lock order is always
//! journal → jobs map → job state), so journal order equals mutation
//! order per job. Replaying the events through the same deterministic
//! code paths therefore reconstructs bit-identical state — including the
//! monotonically increasing deployment `version` counters, which is what
//! makes post-recovery deployments byte-comparable against an
//! uninterrupted run.
//!
//! [`JournalEvent::Characterized`] is recorded at *deploy* time (after
//! the submission won epoch supersession), carrying the full profile
//! database and solver options; replay re-runs the deterministic solver.
//! Superseded, lost, and panicked characterizations never mutate the
//! frontier and are never journaled (a lost/panicked attempt journals
//! only the [`JournalEvent::Degraded`] flag flip).
//!
//! # What gets snapshotted
//!
//! A store directory holds three kinds of file:
//!
//! * `server.journal` — the write-ahead journal;
//! * `frontier-<key>.seg` — one immutable [`Segment`] per distinct
//!   characterized plan: a job's frontier plus its Kareus sleep plans.
//!   `<key>` is the FNV-1a-128 hash of the segment's payload, so equal
//!   plans share one file and a file, once written, never changes;
//! * `server.snap` — a [`ServerSnapshot`]: every job's small mutable
//!   state (profiles, straggler/clock state, deployment) with its
//!   segment's key, plus the `applied_seq` watermark of the last journal
//!   record it covers.
//!
//! A snapshot therefore writes only the segments not yet on disk — one
//! after each characterization, drift re-plan or frequency cap — and the
//! small `server.snap`. A segment's key is computed once, by the first
//! durable snapshot or checkpoint that persists it, and cached inside
//! the segment. [`write_state`] fixes the write order and [`open_dir`]
//! the load path. Recovery loads the snapshot (falling back to
//! journal-only replay if it or a segment it references is missing or
//! corrupt) and replays only the journal tail past the watermark,
//! skipping the expensive re-characterizations the snapshot already
//! embodies. Journal compaction below the watermark comes last.
//!
//! Volatile observability counters (degraded lookups, faults absorbed)
//! are *not* persisted — like any process-local Prometheus counter they
//! reset on restart; the durability counters in [`DurabilityStats`]
//! record that a restart happened.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use perseus_core::{fnv1a_128, EnergySchedule, FrontierOptions, ParetoFrontier, SleepPlan};
use perseus_gpu::{FreqMHz, GpuSpec, PowerStateModel};
use perseus_pipeline::{OpKey, PipelineDag};
use perseus_profiler::ProfileDb;
use perseus_store::{
    load_snapshot, write_snapshot, ByteReader, ByteWriter, Journal, Persist, Record, StoreError,
};
use perseus_telemetry::Telemetry;

use crate::server::{Deployment, ServerConfig};

/// File name of the write-ahead journal inside the store directory.
pub(crate) const JOURNAL_FILE: &str = "server.journal";
/// File name of the state snapshot inside the store directory.
const SNAPSHOT_FILE: &str = "server.snap";
/// Segment files are named `frontier-<key>.seg`.
const SEGMENT_PREFIX: &str = "frontier-";
const SEGMENT_SUFFIX: &str = ".seg";
/// First word of every `server.snap` payload. A snapshot written before
/// frontiers moved into segments starts with its watermark instead and
/// fails to decode, taking the corrupt-snapshot fallback.
const SNAPSHOT_FORMAT: u64 = u64::from_le_bytes(*b"PSEGSNAP");
/// Default journal appends between automatic snapshots.
pub(crate) const DEFAULT_SNAPSHOT_EVERY: u64 = 64;

/// One state-mutating server event, as recorded in the write-ahead
/// journal.
#[derive(Debug, Clone)]
pub(crate) enum JournalEvent {
    /// A job was registered.
    RegisterJob {
        /// Job name.
        name: String,
        /// The job's pipeline DAG.
        pipe: PipelineDag,
        /// The job's GPU model.
        gpu: GpuSpec,
        /// Sleep states available to the job's accelerators, if any.
        power: Option<PowerStateModel>,
    },
    /// A profile submission won epoch supersession and deployed: replay
    /// re-runs the (deterministic) characterization with these inputs.
    Characterized {
        /// Job name.
        name: String,
        /// Submission epoch that won.
        epoch: u64,
        /// The submitted profile database.
        profiles: ProfileDb<OpKey>,
        /// Solver options of the submission.
        opts: FrontierOptions,
    },
    /// A straggler notification was accepted (immediate or scheduled).
    SetStraggler {
        /// Job name.
        name: String,
        /// Accelerator id of the straggler.
        gpu_id: usize,
        /// Seconds until the notification fires (<= 0 fires immediately).
        delay_s: f64,
        /// Iteration-time inflation (1.0 = back to normal).
        degree: f64,
    },
    /// The job's simulated clock advanced.
    AdvanceTime {
        /// Job name.
        name: String,
        /// Seconds advanced.
        dt_s: f64,
    },
    /// The job's simulated clock was skewed (chaos fault).
    SkewClock {
        /// Job name.
        name: String,
        /// Skew in seconds (may be negative).
        skew_s: f64,
    },
    /// A datacenter frequency cap was applied.
    FreqCap {
        /// Job name.
        name: String,
        /// The cap.
        cap: FreqMHz,
    },
    /// The job's last characterization attempt died (lost or panicked)
    /// while a previous frontier existed; the job is serving degraded.
    Degraded {
        /// Job name.
        name: String,
    },
}

impl Persist for JournalEvent {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            JournalEvent::RegisterJob {
                name,
                pipe,
                gpu,
                power,
            } => {
                w.put_u8(0);
                w.put_str(name);
                pipe.encode(w);
                gpu.encode(w);
                power.encode(w);
            }
            JournalEvent::Characterized {
                name,
                epoch,
                profiles,
                opts,
            } => {
                w.put_u8(1);
                w.put_str(name);
                w.put_u64(*epoch);
                profiles.encode(w);
                opts.encode(w);
            }
            JournalEvent::SetStraggler {
                name,
                gpu_id,
                delay_s,
                degree,
            } => {
                w.put_u8(2);
                w.put_str(name);
                w.put_usize(*gpu_id);
                w.put_f64(*delay_s);
                w.put_f64(*degree);
            }
            JournalEvent::AdvanceTime { name, dt_s } => {
                w.put_u8(3);
                w.put_str(name);
                w.put_f64(*dt_s);
            }
            JournalEvent::SkewClock { name, skew_s } => {
                w.put_u8(4);
                w.put_str(name);
                w.put_f64(*skew_s);
            }
            JournalEvent::FreqCap { name, cap } => {
                w.put_u8(5);
                w.put_str(name);
                cap.encode(w);
            }
            JournalEvent::Degraded { name } => {
                w.put_u8(6);
                w.put_str(name);
            }
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        match r.get_u8()? {
            0 => Ok(JournalEvent::RegisterJob {
                name: r.get_str()?,
                pipe: PipelineDag::decode(r)?,
                gpu: GpuSpec::decode(r)?,
                power: Persist::decode(r)?,
            }),
            1 => Ok(JournalEvent::Characterized {
                name: r.get_str()?,
                epoch: r.get_u64()?,
                profiles: ProfileDb::<OpKey>::decode(r)?,
                opts: FrontierOptions::decode(r)?,
            }),
            2 => Ok(JournalEvent::SetStraggler {
                name: r.get_str()?,
                gpu_id: r.get_usize()?,
                delay_s: r.get_f64()?,
                degree: r.get_f64()?,
            }),
            3 => Ok(JournalEvent::AdvanceTime {
                name: r.get_str()?,
                dt_s: r.get_f64()?,
            }),
            4 => Ok(JournalEvent::SkewClock {
                name: r.get_str()?,
                skew_s: r.get_f64()?,
            }),
            5 => Ok(JournalEvent::FreqCap {
                name: r.get_str()?,
                cap: Persist::decode(r)?,
            }),
            6 => Ok(JournalEvent::Degraded { name: r.get_str()? }),
            t => Err(StoreError::corrupt(format!("invalid JournalEvent tag {t}"))),
        }
    }
}

impl Persist for Deployment {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.version);
        w.put_f64(self.t_prime);
        w.put_f64(self.planned_time_s);
        self.schedule.encode(w);
        self.sleep.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        Ok(Deployment {
            version: r.get_u64()?,
            t_prime: r.get_f64()?,
            planned_time_s: r.get_f64()?,
            schedule: EnergySchedule::decode(r)?,
            sleep: Persist::decode(r)?,
        })
    }
}

/// Content address of a [`Segment`]: FNV-1a-128 of its payload bytes.
/// Names the segment's file, `frontier-<32 hex digits>.seg`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct SegmentKey(u128);

impl SegmentKey {
    fn of(payload: &[u8]) -> SegmentKey {
        SegmentKey(fnv1a_128(payload))
    }

    fn file_name(self) -> String {
        format!("{SEGMENT_PREFIX}{:032x}{SEGMENT_SUFFIX}", self.0)
    }
}

impl Persist for SegmentKey {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64((self.0 >> 64) as u64);
        w.put_u64(self.0 as u64);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        let hi = r.get_u64()?;
        let lo = r.get_u64()?;
        Ok(SegmentKey((u128::from(hi) << 64) | u128::from(lo)))
    }
}

/// A job's characterized plan: its Pareto frontier plus, for Kareus
/// jobs, one sleep plan per frontier point (same index order). Immutable:
/// a characterization, drift re-plan or frequency cap builds a new one,
/// so its cached key can never describe other bytes. On disk it is one
/// segment file named by that key, written once and shared by every
/// snapshot and every job that references it.
#[derive(Debug)]
pub(crate) struct Segment {
    frontier: Arc<ParetoFrontier>,
    sleep: Option<Vec<SleepPlan>>,
    /// Set when a durable snapshot or checkpoint first persists the
    /// segment, or at load from the file's name; never on an in-memory
    /// server.
    key: OnceLock<SegmentKey>,
}

impl Segment {
    /// A segment whose key is not computed yet.
    pub fn new(frontier: Arc<ParetoFrontier>, sleep: Option<Vec<SleepPlan>>) -> Segment {
        Segment {
            frontier,
            sleep,
            key: OnceLock::new(),
        }
    }

    /// The characterized frontier.
    pub fn frontier(&self) -> &Arc<ParetoFrontier> {
        &self.frontier
    }

    /// One sleep plan per frontier point, for Kareus jobs.
    pub fn sleep(&self) -> Option<&[SleepPlan]> {
        self.sleep.as_deref()
    }

    /// Appends the payload: the frontier, then the sleep plans.
    pub fn encode(&self, w: &mut ByteWriter) {
        self.frontier.encode(w);
        self.sleep.encode(w);
    }

    fn payload(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        self.encode(&mut w);
        w.into_bytes()
    }

    /// The key, hashing the payload if no snapshot has yet.
    fn key(&self) -> SegmentKey {
        *self.key.get_or_init(|| SegmentKey::of(&self.payload()))
    }

    /// Decodes the payload of the segment file stored under `key`.
    fn decode(payload: &[u8], key: SegmentKey) -> Result<Segment, StoreError> {
        let mut r = ByteReader::new(payload);
        let frontier = ParetoFrontier::decode(&mut r)?;
        let sleep: Option<Vec<SleepPlan>> = Persist::decode(&mut r)?;
        if !r.is_exhausted() {
            return Err(StoreError::corrupt("trailing bytes after segment payload"));
        }
        if sleep.as_ref().is_some_and(|s| s.len() != frontier.len()) {
            return Err(StoreError::corrupt(
                "segment holds a sleep plan count unlike its frontier's",
            ));
        }
        Ok(Segment {
            frontier: Arc::new(frontier),
            sleep,
            key: OnceLock::from(key),
        })
    }
}

/// State of one job inside a [`ServerSnapshot`].
#[derive(Debug, Clone)]
pub(crate) struct JobSnapshot {
    /// Job name.
    pub name: String,
    /// The job's pipeline DAG.
    pub pipe: PipelineDag,
    /// The job's GPU model.
    pub gpu: GpuSpec,
    /// Sleep states available to the job's accelerators, if any.
    pub power: Option<PowerStateModel>,
    /// Next submission epoch counter.
    pub next_epoch: u64,
    /// Epoch of the deployed frontier (0 = none).
    pub characterized_epoch: u64,
    /// The characterized frontier and its sleep plans, if any, shared
    /// with the job. `server.snap` stores only its key.
    pub segment: Option<Arc<Segment>>,
    /// Profiles behind the frontier, if any.
    pub profiles: Option<ProfileDb<OpKey>>,
    /// Degradation flag.
    pub degraded: bool,
    /// Active stragglers, sorted by accelerator id for deterministic
    /// bytes.
    pub stragglers: Vec<(usize, f64)>,
    /// Pending straggler notifications as `(fire_at, gpu_id, degree)`, in
    /// insertion order.
    pub pending: Vec<(f64, usize, f64)>,
    /// Simulated clock, seconds.
    pub clock_s: f64,
    /// Deployment version counter.
    pub version: u64,
    /// Last deployment pushed to clients.
    pub deployed: Option<Deployment>,
}

impl JobSnapshot {
    /// Appends the job, with `segment` writing its segment: the key in
    /// `server.snap`, the whole payload in the state fingerprint.
    fn encode_with(&self, w: &mut ByteWriter, segment: fn(&Segment, &mut ByteWriter)) {
        w.put_str(&self.name);
        self.pipe.encode(w);
        self.gpu.encode(w);
        self.power.encode(w);
        w.put_u64(self.next_epoch);
        w.put_u64(self.characterized_epoch);
        match &self.segment {
            None => w.put_u8(0),
            Some(s) => {
                w.put_u8(1);
                segment(s, w);
            }
        }
        self.profiles.encode(w);
        w.put_bool(self.degraded);
        self.stragglers.encode(w);
        self.pending.encode(w);
        w.put_f64(self.clock_s);
        w.put_u64(self.version);
        self.deployed.encode(w);
    }

    /// Decodes a job from `server.snap`, resolving its segment key
    /// through `segment`.
    fn decode_with(
        r: &mut ByteReader<'_>,
        segment: &mut impl FnMut(SegmentKey) -> Result<Arc<Segment>, StoreError>,
    ) -> Result<JobSnapshot, StoreError> {
        Ok(JobSnapshot {
            name: r.get_str()?,
            pipe: PipelineDag::decode(r)?,
            gpu: GpuSpec::decode(r)?,
            power: Persist::decode(r)?,
            next_epoch: r.get_u64()?,
            characterized_epoch: r.get_u64()?,
            segment: Option::<SegmentKey>::decode(r)?
                .map(&mut *segment)
                .transpose()?,
            profiles: Persist::decode(r)?,
            degraded: r.get_bool()?,
            stragglers: Persist::decode(r)?,
            pending: Persist::decode(r)?,
            clock_s: r.get_f64()?,
            version: r.get_u64()?,
            deployed: Persist::decode(r)?,
        })
    }
}

/// Bytes of `jobs` with every segment's payload inline: equal bytes ⇔
/// bit-identical jobs. Needs no segment key, so an in-memory server
/// never hashes.
pub(crate) fn fingerprint_bytes(jobs: &[JobSnapshot]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_usize(jobs.len());
    for job in jobs {
        job.encode_with(&mut w, Segment::encode);
    }
    w.into_bytes()
}

/// A full server snapshot: every job's state plus the journal watermark
/// it covers.
#[derive(Debug, Clone)]
pub(crate) struct ServerSnapshot {
    /// Journal records with `seq <= applied_seq` are reflected in this
    /// snapshot and skipped during replay.
    pub applied_seq: u64,
    /// Per-job state, sorted by name for deterministic bytes.
    pub jobs: Vec<JobSnapshot>,
}

impl ServerSnapshot {
    /// The `server.snap` payload: format marker, watermark, then every
    /// job with its segment key.
    fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u64(SNAPSHOT_FORMAT);
        w.put_u64(self.applied_seq);
        w.put_usize(self.jobs.len());
        for job in &self.jobs {
            job.encode_with(&mut w, |s, w| s.key().encode(w));
        }
        w.into_bytes()
    }

    /// Decodes a `server.snap` payload, resolving segment keys through
    /// `segment`.
    fn from_bytes(
        bytes: &[u8],
        mut segment: impl FnMut(SegmentKey) -> Result<Arc<Segment>, StoreError>,
    ) -> Result<ServerSnapshot, StoreError> {
        let mut r = ByteReader::new(bytes);
        if r.get_u64()? != SNAPSHOT_FORMAT {
            return Err(StoreError::corrupt(
                "snapshot predates frontier segments or is not a server snapshot",
            ));
        }
        let applied_seq = r.get_u64()?;
        let n = r.get_len(1)?;
        let mut jobs = Vec::with_capacity(n);
        for _ in 0..n {
            jobs.push(JobSnapshot::decode_with(&mut r, &mut segment)?);
        }
        if !r.is_exhausted() {
            return Err(StoreError::corrupt("trailing bytes after snapshot"));
        }
        Ok(ServerSnapshot { applied_seq, jobs })
    }
}

/// A store directory as found at open: the journal (torn tail already
/// truncated), its valid records, and the snapshot with its segments.
pub(crate) struct OpenedDir {
    /// The open journal.
    pub journal: Journal,
    /// Every valid journal record, in order.
    pub records: Vec<Record>,
    /// The snapshot, if one loaded.
    pub snapshot: Option<ServerSnapshot>,
    /// A snapshot existed but was unusable; recovery replays the journal
    /// alone.
    pub corrupt_snapshot: bool,
}

/// Opens the store directory `dir` (creating it if needed): the journal,
/// then `server.snap` and every segment it references — the one load
/// path of leader and follower alike.
///
/// The snapshot counts as corrupt, never as an error, when `server.snap`
/// or any segment it references is torn, fails its checksum or does not
/// decode, when a referenced segment is missing, and when `server.snap`
/// is missing although segments exist and the journal no longer starts
/// at its first record (a snapshot was written and compacted it).
///
/// # Errors
///
/// [`StoreError::Io`] on filesystem failures, [`StoreError::Corrupt`] if
/// the journal's header is destroyed.
pub(crate) fn open_dir(dir: &Path) -> Result<OpenedDir, StoreError> {
    std::fs::create_dir_all(dir)?;
    let (journal, records) = Journal::open(dir.join(JOURNAL_FILE))?;
    let (snapshot, corrupt_snapshot) = match load_state(dir) {
        Ok(Some(snap)) => (Some(snap), false),
        Ok(None) => {
            let from_genesis = records.first().is_some_and(|r| r.seq == 1);
            (None, !from_genesis && has_segments(dir)?)
        }
        Err(e @ StoreError::Io(_)) => return Err(e),
        Err(_) => (None, true),
    };
    Ok(OpenedDir {
        journal,
        records,
        snapshot,
        corrupt_snapshot,
    })
}

/// Loads `server.snap` and its segments; every error but
/// [`StoreError::Io`] makes the snapshot corrupt (see [`open_dir`]). A
/// segment two jobs share is read once.
fn load_state(dir: &Path) -> Result<Option<ServerSnapshot>, StoreError> {
    let Some(bytes) = load_snapshot(&dir.join(SNAPSHOT_FILE))? else {
        return Ok(None);
    };
    let mut loaded: HashMap<SegmentKey, Arc<Segment>> = HashMap::new();
    ServerSnapshot::from_bytes(&bytes, |key| {
        if let Some(seg) = loaded.get(&key) {
            return Ok(Arc::clone(seg));
        }
        let path = dir.join(key.file_name());
        let payload = load_snapshot(&path)?
            .ok_or_else(|| StoreError::corrupt(format!("segment {} is missing", path.display())))?;
        let seg = Arc::new(Segment::decode(&payload, key)?);
        loaded.insert(key, Arc::clone(&seg));
        Ok(seg)
    })
    .map(Some)
}

/// Persists `snap` into the store directory `dir`, in crash-safe order:
///
/// 1. every referenced segment the directory lacks is written and
///    fsynced (its key computed now if no earlier snapshot did), and the
///    directory is synced;
/// 2. `server.snap` is atomically replaced;
/// 3. segments it no longer references and temp files of interrupted
///    writes are deleted, after a directory sync makes step 2 durable.
///
/// A crash anywhere leaves the previous `server.snap` and every segment
/// it references readable. The caller compacts the journal after this
/// returns, last. Returns the number of segment files written.
///
/// # Errors
///
/// [`StoreError::Io`] if a segment or `server.snap` cannot be written.
/// Deletion is best effort: a file that cannot be removed is garbage the
/// next snapshot retries, never state anyone reads.
pub(crate) fn write_state(dir: &Path, snap: &ServerSnapshot) -> Result<u64, StoreError> {
    let mut referenced: HashSet<SegmentKey> = HashSet::new();
    let mut written = 0;
    for seg in snap.jobs.iter().filter_map(|j| j.segment.as_deref()) {
        // The first persist encodes the payload once, for both the hash
        // and the file; later snapshots find the key cached.
        let mut payload = None;
        let key = *seg.key.get_or_init(|| {
            let bytes = seg.payload();
            let key = SegmentKey::of(&bytes);
            payload = Some(bytes);
            key
        });
        let path = dir.join(key.file_name());
        if referenced.insert(key) && !path.exists() {
            write_snapshot(&path, &payload.unwrap_or_else(|| seg.payload()))?;
            written += 1;
        }
    }
    if written > 0 {
        sync_dir(dir)?;
    }
    write_snapshot(&dir.join(SNAPSHOT_FILE), &snap.to_bytes())?;

    let keep: HashSet<String> = referenced.iter().map(|k| k.file_name()).collect();
    let stale: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(Result::ok)
        .filter(|entry| {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let ours = name.starts_with(SEGMENT_PREFIX) || name.starts_with("server.");
            (ours && name.ends_with(".tmp"))
                || (is_segment_file(&name) && !keep.contains(name.as_ref()))
        })
        .map(|entry| entry.path())
        .collect();
    if !stale.is_empty() {
        sync_dir(dir)?;
        for path in stale {
            let _ = std::fs::remove_file(path);
        }
    }
    Ok(written)
}

/// Whether `name` is a segment file's name, `frontier-<key>.seg`.
fn is_segment_file(name: &str) -> bool {
    name.starts_with(SEGMENT_PREFIX) && name.ends_with(SEGMENT_SUFFIX)
}

/// Whether `dir` holds any segment file.
fn has_segments(dir: &Path) -> Result<bool, StoreError> {
    Ok(std::fs::read_dir(dir)?
        .filter_map(Result::ok)
        .any(|entry| is_segment_file(&entry.file_name().to_string_lossy())))
}

/// Makes the directory entries created or renamed so far durable, so a
/// later rename or unlink cannot reach the disk before them.
fn sync_dir(dir: &Path) -> Result<(), StoreError> {
    #[cfg(unix)]
    std::fs::File::open(dir)?.sync_all()?;
    #[cfg(not(unix))]
    let _ = dir;
    Ok(())
}

/// Durability counters of a durable server, surfaced in
/// [`crate::JobStatus`] and as telemetry
/// (`perseus_store_journal_appends_total`,
/// `perseus_store_recoveries_total`,
/// `perseus_store_truncated_records_total`). All zero for a server
/// without a store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// Journal records appended since this process opened the store.
    pub journal_appends: u64,
    /// Recoveries performed (1 if this server was opened over existing
    /// state, 0 for a fresh directory or a non-durable server).
    pub recoveries: u64,
    /// Unreadable journal tail segments truncated at open.
    pub truncated_records: u64,
    /// Bytes discarded by open-time journal truncation.
    pub truncated_bytes: u64,
    /// Journal events replayed during recovery.
    pub replayed_events: u64,
    /// Characterizations re-run during replay (journal tail past the
    /// snapshot). Each one is solver work a fresher snapshot would have
    /// saved.
    pub recharacterizations_replayed: u64,
    /// Characterizations restored directly from the snapshot — solver
    /// work recovery did *not* redo.
    pub recharacterizations_avoided: u64,
    /// Snapshots written by this process.
    pub snapshots_written: u64,
    /// Segment files those snapshots wrote: one per frontier not yet on
    /// disk, so a snapshot of unchanged frontiers writes none.
    pub segments_written: u64,
    /// 1 if recovery found the snapshot corrupt and fell back to
    /// journal-only replay.
    pub corrupt_snapshots: u64,
}

/// The server's handle on its durable backing: the open journal plus
/// snapshot bookkeeping. Lock order is journal → jobs map → job state;
/// every mutating server path acquires the journal mutex *first*, so a
/// snapshot (which holds the journal lock throughout) observes a frozen,
/// consistent state.
pub(crate) struct Store {
    /// The write-ahead journal. Guards all mutating critical sections.
    pub journal: Mutex<Journal>,
    /// The store directory: journal, snapshot and segment files.
    dir: PathBuf,
    /// Appends between automatic snapshots
    /// ([`ServerConfig::snapshot_every`], floored at 1).
    pub snapshot_every: u64,
    /// Appends since the last snapshot (triggers auto-snapshot).
    pub appends_since_snapshot: AtomicU64,
    /// Counters: see [`DurabilityStats`].
    pub journal_appends: AtomicU64,
    pub recoveries: AtomicU64,
    pub truncated_records: AtomicU64,
    pub truncated_bytes: AtomicU64,
    pub replayed_events: AtomicU64,
    pub recharacterizations_replayed: AtomicU64,
    pub recharacterizations_avoided: AtomicU64,
    pub snapshots_written: AtomicU64,
    pub segments_written: AtomicU64,
    pub corrupt_snapshots: AtomicU64,
    telemetry: Telemetry,
}

impl Store {
    /// Wraps the journal opened in the store directory `dir`, with the
    /// snapshot cadence and telemetry handle of `cfg`.
    pub fn new(journal: Journal, dir: PathBuf, cfg: &ServerConfig) -> Store {
        let stats = journal.stats();
        let store = Store {
            journal: Mutex::new(journal),
            dir,
            snapshot_every: cfg.snapshot_every.max(1),
            appends_since_snapshot: AtomicU64::new(0),
            journal_appends: AtomicU64::new(0),
            recoveries: AtomicU64::new(0),
            truncated_records: AtomicU64::new(stats.truncated_records),
            truncated_bytes: AtomicU64::new(stats.truncated_bytes),
            replayed_events: AtomicU64::new(0),
            recharacterizations_replayed: AtomicU64::new(0),
            recharacterizations_avoided: AtomicU64::new(0),
            snapshots_written: AtomicU64::new(0),
            segments_written: AtomicU64::new(0),
            corrupt_snapshots: AtomicU64::new(0),
            telemetry: cfg.telemetry.clone(),
        };
        if stats.truncated_records > 0 && store.telemetry.is_enabled() {
            store
                .telemetry
                .counter("perseus_store_truncated_records_total")
                .add(stats.truncated_records);
        }
        store
    }

    /// Appends an already-encoded event to the journal the caller holds
    /// locked. Append failures are contained: the mutation already
    /// happened and must not be rolled back, so an unwritable journal
    /// degrades durability (the event will be missing after a crash) but
    /// never takes down the serving path.
    pub fn append_locked(&self, journal: &mut Journal, payload: &[u8]) {
        if journal.append(payload).is_ok() {
            self.journal_appends.fetch_add(1, Ordering::Relaxed);
            self.appends_since_snapshot.fetch_add(1, Ordering::Relaxed);
            if self.telemetry.is_enabled() {
                self.telemetry
                    .counter("perseus_store_journal_appends_total")
                    .inc();
            }
        }
    }

    /// Persists `snap` ([`write_state`]), then compacts the journal the
    /// caller holds locked below the snapshot's watermark — last, so a
    /// failed snapshot leaves the full journal behind it.
    pub fn snapshot_locked(
        &self,
        journal: &mut Journal,
        snap: &ServerSnapshot,
    ) -> Result<(), StoreError> {
        let written = write_state(&self.dir, snap)?;
        self.segments_written.fetch_add(written, Ordering::Relaxed);
        journal.compact_below(snap.applied_seq)?;
        self.appends_since_snapshot.store(0, Ordering::Relaxed);
        self.snapshots_written.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Records that a recovery ran (existing state was found and
    /// restored).
    pub fn record_recovery(&self) {
        self.recoveries.fetch_add(1, Ordering::Relaxed);
        if self.telemetry.is_enabled() {
            self.telemetry
                .counter("perseus_store_recoveries_total")
                .inc();
        }
    }

    /// Current durability counters.
    pub fn stats(&self) -> DurabilityStats {
        DurabilityStats {
            journal_appends: self.journal_appends.load(Ordering::Relaxed),
            recoveries: self.recoveries.load(Ordering::Relaxed),
            truncated_records: self.truncated_records.load(Ordering::Relaxed),
            truncated_bytes: self.truncated_bytes.load(Ordering::Relaxed),
            replayed_events: self.replayed_events.load(Ordering::Relaxed),
            recharacterizations_replayed: self.recharacterizations_replayed.load(Ordering::Relaxed),
            recharacterizations_avoided: self.recharacterizations_avoided.load(Ordering::Relaxed),
            snapshots_written: self.snapshots_written.load(Ordering::Relaxed),
            segments_written: self.segments_written.load(Ordering::Relaxed),
            corrupt_snapshots: self.corrupt_snapshots.load(Ordering::Relaxed),
        }
    }
}
