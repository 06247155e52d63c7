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
//! A store directory holds five kinds of file:
//!
//! * `server.journal` — the write-ahead journal;
//! * `frontier-<key>.seg` — one immutable [`Segment`] per distinct
//!   characterized plan: a job's frontier plus its Kareus sleep plans;
//! * `job-<key>.seg` — one per distinct [`JobInputs`] (pipeline, GPU
//!   model, sleep states), fixed at registration, so jobs of one shape
//!   share one file;
//! * `profiles-<key>.seg` — one per distinct profile database, replaced
//!   by every characterization and drift re-plan;
//! * `server.snap` — a [`ServerSnapshot`]: every job's small mutable
//!   state (epochs, degradation, straggler and clock state, and the
//!   deployment as its version and `T'`) with the keys of its segments,
//!   plus the `applied_seq` watermark of the last journal record it
//!   covers.
//!
//! `<key>` is the [`content_hash`] of the segment's payload, so equal
//! values share one file and a file, once written, never changes. A
//! segment loads under the name `server.snap` records for it, so files
//! named under an earlier hash still load. A deployment is not stored
//! whole: it is its segment's lookup at its `T'`
//! ([`Deployment::from_plan`]), which load repeats.
//!
//! A snapshot therefore writes only the segments not yet on disk — after
//! a registration, characterization, drift re-plan or frequency cap — and
//! the small `server.snap`. A segment's key is computed once, by the
//! first durable snapshot or checkpoint that persists it, and cached
//! inside the segment. [`write_state`] fixes the write order and
//! [`open_dir`] the load path. Recovery loads the snapshot (falling back
//! to journal-only replay if it or a segment it references is missing or
//! corrupt) and replays only the journal tail past the watermark,
//! skipping the expensive re-characterizations the snapshot already
//! embodies. Truncating the journal the snapshot covers comes last
//! ([`persist`]).
//!
//! Volatile observability counters (degraded lookups, faults absorbed)
//! are *not* persisted — like any process-local Prometheus counter they
//! reset on restart; the durability counters in [`DurabilityStats`]
//! record that a restart happened.

use std::collections::{HashMap, HashSet};
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use perseus_core::{content_hash, EnergySchedule, FrontierOptions, FrontierPlan};
use perseus_gpu::{FreqMHz, GpuSpec, PowerStateModel};
use perseus_pipeline::{OpKey, PipelineDag};
use perseus_profiler::ProfileDb;
use perseus_store::{
    load_snapshot, write_snapshot, ByteReader, ByteWriter, Journal, Persist, Record, StoreError,
};
use perseus_telemetry::{span, Telemetry};

use crate::server::{Deployment, ServerConfig};

/// File name of the write-ahead journal inside the store directory.
pub(crate) const JOURNAL_FILE: &str = "server.journal";
/// File name of the state snapshot inside the store directory.
const SNAPSHOT_FILE: &str = "server.snap";
/// Every segment file is named `<prefix><key>.seg`.
const SEGMENT_SUFFIX: &str = ".seg";
/// First word of every `server.snap` payload.
const SNAPSHOT_FORMAT: u64 = u64::from_le_bytes(*b"PKEYSNAP");
/// First word of the previous format's `server.snap`, whose planning
/// inputs, profiles and deployments were inline. No reader is kept: a
/// directory of that format fails [`open_dir`] with
/// [`StoreError::Unsupported`] rather than open as a corrupt snapshot,
/// whose recovery would keep only what the journal holds and sweep every
/// frontier segment.
const PREVIOUS_SNAPSHOT_FORMAT: u64 = u64::from_le_bytes(*b"PSEGSNAP");
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
        /// The job's pipeline, GPU model and sleep states, shared with
        /// the job.
        inputs: Arc<Segment<JobInputs>>,
    },
    /// A profile submission won epoch supersession and deployed: replay
    /// re-runs the (deterministic) characterization with these inputs.
    Characterized {
        /// Job name.
        name: String,
        /// Submission epoch that won.
        epoch: u64,
        /// The submitted profile database, shared with the job.
        profiles: Arc<Segment<ProfileDb<OpKey>>>,
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
            JournalEvent::RegisterJob { name, inputs } => {
                w.put_u8(0);
                w.put_str(name);
                inputs.encode(w);
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
                inputs: Arc::new(Segment::new(JobInputs::decode(r)?)),
            }),
            1 => Ok(JournalEvent::Characterized {
                name: r.get_str()?,
                epoch: r.get_u64()?,
                profiles: Arc::new(Segment::new(ProfileDb::<OpKey>::decode(r)?)),
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

/// Content address of a [`Segment`]: the [`content_hash`] of its payload
/// bytes. Names the segment's file, `<prefix><32 hex digits>.seg`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct SegmentKey(u128);

impl SegmentKey {
    fn of(payload: &[u8]) -> SegmentKey {
        SegmentKey(content_hash(payload))
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

/// A value kept in segment files, and the prefix of their names.
pub(crate) trait Stored: Persist {
    /// Every file of this kind is named `<PREFIX><key>.seg`.
    const PREFIX: &'static str;
}

impl Stored for FrontierPlan {
    const PREFIX: &'static str = "frontier-";
}

impl Stored for JobInputs {
    const PREFIX: &'static str = "job-";
}

impl Stored for ProfileDb<OpKey> {
    const PREFIX: &'static str = "profiles-";
}

/// Every prefix a segment file name starts with.
const SEGMENT_PREFIXES: [&str; 3] = [
    <FrontierPlan as Stored>::PREFIX,
    <JobInputs as Stored>::PREFIX,
    <ProfileDb<OpKey> as Stored>::PREFIX,
];

/// An immutable value under the key of its bytes: a characterized plan
/// ([`FrontierPlan`]), a job's registered [`JobInputs`], or the profiles
/// of its last characterization. A characterization, drift re-plan or
/// frequency cap builds a new one rather than changing one, so its cached
/// key can never describe other bytes. On disk it is one file named by
/// that key, written once and shared by every snapshot and every job that
/// references it.
#[derive(Debug)]
pub(crate) struct Segment<T> {
    value: T,
    /// Set when a durable snapshot or checkpoint first persists the
    /// segment, or at load from the file's name; never on an in-memory
    /// server.
    key: OnceLock<SegmentKey>,
}

impl<T> Segment<T> {
    /// A segment whose key is not computed yet.
    pub fn new(value: T) -> Segment<T> {
        Segment {
            value,
            key: OnceLock::new(),
        }
    }
}

impl<T> Deref for Segment<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T: Stored> Segment<T> {
    fn file_name(key: SegmentKey) -> String {
        format!("{}{:032x}{SEGMENT_SUFFIX}", T::PREFIX, key.0)
    }

    /// The key, hashing the payload if no snapshot has yet.
    fn key(&self) -> SegmentKey {
        *self
            .key
            .get_or_init(|| SegmentKey::of(&self.value.to_bytes()))
    }

    /// Writes the segment's file into `dir` unless `present` (the files
    /// `dir` held) or `referenced` (the files this snapshot already
    /// named) has it, and adds it to `referenced`. The first persist
    /// encodes the payload once, for both the hash and the file; later
    /// ones find the key cached. Returns whether a file was written.
    fn persist(
        &self,
        dir: &Path,
        present: &HashSet<String>,
        referenced: &mut HashSet<String>,
    ) -> Result<bool, StoreError> {
        let mut payload = None;
        let key = *self.key.get_or_init(|| {
            let bytes = self.value.to_bytes();
            let key = SegmentKey::of(&bytes);
            payload = Some(bytes);
            key
        });
        let name = Self::file_name(key);
        let path = dir.join(&name);
        let on_disk = present.contains(&name);
        if !referenced.insert(name) || on_disk {
            return Ok(false);
        }
        write_snapshot(&path, &payload.unwrap_or_else(|| self.value.to_bytes()))?;
        Ok(true)
    }
}

/// What a job's registration fixes besides its name: the pipeline, the
/// GPU model and the sleep states, the planning inputs every
/// characterization of the job reads. Jobs of one shape share one
/// `job-<key>.seg` file.
#[derive(Debug)]
pub(crate) struct JobInputs {
    /// The job's pipeline DAG.
    pub pipe: PipelineDag,
    /// The job's GPU model.
    pub gpu: GpuSpec,
    /// Sleep states available to the job's accelerators, if any.
    pub power: Option<PowerStateModel>,
}

impl Persist for JobInputs {
    fn encode(&self, w: &mut ByteWriter) {
        self.pipe.encode(w);
        self.gpu.encode(w);
        self.power.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        Ok(JobInputs {
            pipe: PipelineDag::decode(r)?,
            gpu: GpuSpec::decode(r)?,
            power: Persist::decode(r)?,
        })
    }
}

/// State of one job inside a [`ServerSnapshot`]. Its segments are shared
/// with the job, not copied.
#[derive(Debug, Clone)]
pub(crate) struct JobSnapshot {
    /// Job name.
    pub name: String,
    /// The job's pipeline, GPU model and sleep states.
    pub inputs: Arc<Segment<JobInputs>>,
    /// Next submission epoch counter.
    pub next_epoch: u64,
    /// Epoch of the deployed frontier (0 = none).
    pub characterized_epoch: u64,
    /// The characterized frontier and its sleep plans, if any.
    pub segment: Option<Arc<Segment<FrontierPlan>>>,
    /// Profiles behind the frontier, if any.
    pub profiles: Option<Arc<Segment<ProfileDb<OpKey>>>>,
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
    /// Last deployment pushed to clients: the lookup of `segment` at its
    /// `T'`.
    pub deployed: Option<Deployment>,
}

/// Appends `segment`: its payload when `inline`, else its key.
fn put_segment<T: Stored>(w: &mut ByteWriter, segment: &Segment<T>, inline: bool) {
    if inline {
        segment.value.encode(w);
    } else {
        segment.key().encode(w);
    }
}

/// [`put_segment`] behind an `Option` tag.
fn put_optional<T: Stored>(w: &mut ByteWriter, segment: Option<&Arc<Segment<T>>>, inline: bool) {
    match segment {
        None => w.put_u8(0),
        Some(segment) => {
            w.put_u8(1);
            put_segment(w, segment, inline);
        }
    }
}

impl JobSnapshot {
    /// Appends the job. `inline` writes every segment's payload and the
    /// whole deployment (the state fingerprint); otherwise each segment
    /// is its key and the deployment its version and `T'`
    /// (`server.snap`).
    fn encode_with(&self, w: &mut ByteWriter, inline: bool) {
        w.put_str(&self.name);
        put_segment(w, &self.inputs, inline);
        w.put_u64(self.next_epoch);
        w.put_u64(self.characterized_epoch);
        put_optional(w, self.segment.as_ref(), inline);
        put_optional(w, self.profiles.as_ref(), inline);
        w.put_bool(self.degraded);
        self.stragglers.encode(w);
        self.pending.encode(w);
        w.put_f64(self.clock_s);
        w.put_u64(self.version);
        if inline {
            self.deployed.encode(w);
        } else {
            if let Some(d) = &self.deployed {
                debug_assert!(
                    self.segment.as_ref().is_some_and(|s| {
                        Deployment::from_plan(s, d.version, d.t_prime).to_bytes() == d.to_bytes()
                    }),
                    "job {}: the deployment is not its segment's lookup at its T'",
                    self.name
                );
            }
            self.deployed
                .as_ref()
                .map(|d| (d.version, d.t_prime))
                .encode(w);
        }
    }

    /// Decodes a job from `server.snap`, loading its segments through
    /// `loader` and rebuilding its deployment from its segment.
    fn decode(r: &mut ByteReader<'_>, loader: &mut Loader<'_>) -> Result<JobSnapshot, StoreError> {
        let name = r.get_str()?;
        let inputs = load(loader.dir, &mut loader.inputs, SegmentKey::decode(r)?)?;
        let next_epoch = r.get_u64()?;
        let characterized_epoch = r.get_u64()?;
        let segment = Option::<SegmentKey>::decode(r)?
            .map(|key| load(loader.dir, &mut loader.plans, key))
            .transpose()?;
        let profiles = Option::<SegmentKey>::decode(r)?
            .map(|key| load(loader.dir, &mut loader.profiles, key))
            .transpose()?;
        let degraded = r.get_bool()?;
        let stragglers = Persist::decode(r)?;
        let pending = Persist::decode(r)?;
        let clock_s = r.get_f64()?;
        let version = r.get_u64()?;
        let deployed = match (Option::<(u64, f64)>::decode(r)?, &segment) {
            (None, _) => None,
            (Some((version, t_prime)), Some(s)) => Some(Deployment::from_plan(s, version, t_prime)),
            (Some(_), None) => {
                return Err(StoreError::corrupt(format!(
                    "job {name:?} has a deployment but no frontier"
                )))
            }
        };
        Ok(JobSnapshot {
            name,
            inputs,
            next_epoch,
            characterized_epoch,
            segment,
            profiles,
            degraded,
            stragglers,
            pending,
            clock_s,
            version,
            deployed,
        })
    }
}

/// Bytes of `jobs` with every segment's payload and every deployment
/// inline: equal bytes ⇔ bit-identical jobs. Needs no segment key, so an
/// in-memory server never hashes.
pub(crate) fn fingerprint_bytes(jobs: &[JobSnapshot]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_usize(jobs.len());
    for job in jobs {
        job.encode_with(&mut w, true);
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
    /// job with its segment keys.
    fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u64(SNAPSHOT_FORMAT);
        w.put_u64(self.applied_seq);
        w.put_usize(self.jobs.len());
        for job in &self.jobs {
            job.encode_with(&mut w, false);
        }
        w.into_bytes()
    }

    /// Decodes a `server.snap` payload, loading the segments it names
    /// from `dir`.
    fn from_bytes(bytes: &[u8], dir: &Path) -> Result<ServerSnapshot, StoreError> {
        let mut r = ByteReader::new(bytes);
        match r.get_u64()? {
            SNAPSHOT_FORMAT => {}
            PREVIOUS_SNAPSHOT_FORMAT => {
                return Err(StoreError::Unsupported {
                    reason: "server.snap has the previous layout (PSEGSNAP), which this \
                             build does not read"
                        .into(),
                })
            }
            _ => return Err(StoreError::corrupt("not a server snapshot")),
        }
        let applied_seq = r.get_u64()?;
        let n = r.get_len(1)?;
        let mut loader = Loader {
            dir,
            inputs: HashMap::new(),
            plans: HashMap::new(),
            profiles: HashMap::new(),
        };
        let mut jobs = Vec::with_capacity(n);
        for _ in 0..n {
            jobs.push(JobSnapshot::decode(&mut r, &mut loader)?);
        }
        if !r.is_exhausted() {
            return Err(StoreError::corrupt("trailing bytes after snapshot"));
        }
        Ok(ServerSnapshot { applied_seq, jobs })
    }
}

/// The segments one `server.snap` load has read, by kind: a segment
/// several jobs share is read once and shared again.
struct Loader<'a> {
    dir: &'a Path,
    inputs: HashMap<SegmentKey, Arc<Segment<JobInputs>>>,
    plans: HashMap<SegmentKey, Arc<Segment<FrontierPlan>>>,
    profiles: HashMap<SegmentKey, Arc<Segment<ProfileDb<OpKey>>>>,
}

/// The segment stored in `dir` under `key`, read unless `loaded` has it.
/// A missing, torn or undecodable file is [`StoreError::Corrupt`].
fn load<T: Stored>(
    dir: &Path,
    loaded: &mut HashMap<SegmentKey, Arc<Segment<T>>>,
    key: SegmentKey,
) -> Result<Arc<Segment<T>>, StoreError> {
    if let Some(seg) = loaded.get(&key) {
        return Ok(Arc::clone(seg));
    }
    let path = dir.join(Segment::<T>::file_name(key));
    let payload = load_snapshot(&path)?
        .ok_or_else(|| StoreError::corrupt(format!("segment {} is missing", path.display())))?;
    let seg = Arc::new(Segment {
        value: T::from_bytes(&payload)?,
        key: OnceLock::from(key),
    });
    loaded.insert(key, Arc::clone(&seg));
    Ok(seg)
}

/// A store directory as found at open: the journal (torn tail already
/// truncated), its valid records, and the snapshot with its segments.
pub(crate) struct OpenedDir {
    /// The open journal, numbering past the snapshot's watermark.
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
/// path of leader and follower alike. A journal whose every record the
/// snapshot covers is compacted at its watermark: those are records a
/// crash kept although the snapshot's compaction dropped them, and a
/// record appended behind them would break the journal's numbering. The
/// compaction also moves the sequence counter past the watermark, whose
/// numbers the snapshot owns.
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
/// the journal's header is destroyed, [`StoreError::Unsupported`] if
/// `server.snap` is of the previous format — before anything in `dir`
/// is changed but a torn journal tail.
pub(crate) fn open_dir(dir: &Path) -> Result<OpenedDir, StoreError> {
    std::fs::create_dir_all(dir)?;
    let (mut journal, records) = Journal::open(dir.join(JOURNAL_FILE))?;
    let (snapshot, corrupt_snapshot) = match load_state(dir) {
        Ok(Some(snap)) => (Some(snap), false),
        Ok(None) => {
            let from_genesis = records.first().is_some_and(|r| r.seq == 1);
            (None, !from_genesis && has_segments(dir)?)
        }
        Err(e @ (StoreError::Io(_) | StoreError::Unsupported { .. })) => return Err(e),
        Err(_) => (None, true),
    };
    if let Some(snap) = &snapshot {
        if records.last().map_or(0, |r| r.seq) <= snap.applied_seq {
            journal.compact_below(snap.applied_seq)?;
        }
    }
    Ok(OpenedDir {
        journal,
        records,
        snapshot,
        corrupt_snapshot,
    })
}

/// Loads `server.snap` and its segments; every error but
/// [`StoreError::Io`] makes the snapshot corrupt (see [`open_dir`]).
fn load_state(dir: &Path) -> Result<Option<ServerSnapshot>, StoreError> {
    let Some(bytes) = load_snapshot(&dir.join(SNAPSHOT_FILE))? else {
        return Ok(None);
    };
    ServerSnapshot::from_bytes(&bytes, dir).map(Some)
}

/// Persists `snap` into the store directory `dir`, in crash-safe order:
///
/// 1. every referenced segment the directory lacks is written and
///    fsynced (its key computed now if no earlier snapshot did) — the
///    job input and profile files (span `inputs`), then the frontier
///    files (span `segments`);
/// 2. if any was written, the directory is synced; `server.snap` is
///    atomically replaced; the directory is synced again, making the
///    new `server.snap` durable before the caller truncates the journal
///    it covers (span `state`, which also holds step 3);
/// 3. segments it no longer references and temp files of interrupted
///    writes are deleted.
///
/// A crash anywhere leaves the previous `server.snap` and every segment
/// it references readable. One directory listing serves both the
/// presence checks of step 1 and the deletions of step 3. Returns the
/// number of frontier segment files written.
///
/// # Errors
///
/// [`StoreError::Io`] if a segment or `server.snap` cannot be written.
/// Deletion is best effort: a file that cannot be removed is garbage the
/// next snapshot retries, never state anyone reads.
fn write_state(dir: &Path, snap: &ServerSnapshot, tel: &Telemetry) -> Result<u64, StoreError> {
    let present: HashSet<String> = std::fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|entry| entry.file_name().to_string_lossy().into_owned())
        .filter(|name| is_segment_file(name) || name.ends_with(".tmp"))
        .collect();
    let mut referenced: HashSet<String> = HashSet::new();
    let mut inputs_written = false;
    {
        let _span = span!(tel, "inputs");
        for job in &snap.jobs {
            inputs_written |= job.inputs.persist(dir, &present, &mut referenced)?;
            if let Some(profiles) = &job.profiles {
                inputs_written |= profiles.persist(dir, &present, &mut referenced)?;
            }
        }
    }
    let mut written = 0;
    {
        let _span = span!(tel, "segments");
        for seg in snap.jobs.iter().filter_map(|j| j.segment.as_deref()) {
            written += u64::from(seg.persist(dir, &present, &mut referenced)?);
        }
    }
    let _span = span!(tel, "state");
    if inputs_written || written > 0 {
        sync_dir(dir)?;
    }
    write_snapshot(&dir.join(SNAPSHOT_FILE), &snap.to_bytes())?;
    sync_dir(dir)?;
    for name in &present {
        let ours =
            name.starts_with("server.") || SEGMENT_PREFIXES.iter().any(|p| name.starts_with(p));
        let stale = if name.ends_with(".tmp") {
            ours
        } else {
            !referenced.contains(name)
        };
        if stale {
            let _ = std::fs::remove_file(dir.join(name));
        }
    }
    Ok(written)
}

/// Persists `snap` ([`write_state`]), then truncates `journal`, whose
/// every record the snapshot covers (span `compact`) — last, so a failed
/// snapshot leaves the full journal behind it. The one path of a leader
/// snapshot and a follower's checkpoint install. Returns the number of
/// frontier segment files written.
///
/// # Errors
///
/// As [`write_state`]; [`StoreError::Uncovered`] if `journal` holds a
/// record past the snapshot's watermark.
pub(crate) fn persist(
    dir: &Path,
    journal: &mut Journal,
    snap: &ServerSnapshot,
    tel: &Telemetry,
) -> Result<u64, StoreError> {
    let written = write_state(dir, snap, tel)?;
    let _span = span!(tel, "compact");
    journal.compact_below(snap.applied_seq)?;
    Ok(written)
}

/// Whether `name` is a segment file's name, `<prefix><key>.seg`.
fn is_segment_file(name: &str) -> bool {
    name.ends_with(SEGMENT_SUFFIX) && SEGMENT_PREFIXES.iter().any(|p| name.starts_with(p))
}

/// Whether `dir` holds any segment file.
fn has_segments(dir: &Path) -> Result<bool, StoreError> {
    Ok(std::fs::read_dir(dir)?
        .filter_map(Result::ok)
        .any(|entry| is_segment_file(&entry.file_name().to_string_lossy())))
}

/// Makes the directory entries created or renamed so far durable, so a
/// later rename, unlink or journal truncation cannot reach the disk
/// before them.
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
    /// Frontier segment files those snapshots wrote: one per frontier not
    /// yet on disk, so a snapshot of unchanged frontiers writes none.
    /// Job input and profile files are not counted.
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

    /// Persists `snap`, which covers every record of the journal the
    /// caller holds locked, and truncates that journal ([`persist`]),
    /// inside a `snapshot` span.
    pub fn snapshot_locked(
        &self,
        journal: &mut Journal,
        snap: &ServerSnapshot,
    ) -> Result<(), StoreError> {
        let _span = span!(self.telemetry, "snapshot");
        let written = persist(&self.dir, journal, snap, &self.telemetry)?;
        self.segments_written.fetch_add(written, Ordering::Relaxed);
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
