//! WAL-shipping replication and leader failover.
//!
//! The leader's write-ahead journal is already a total order over every
//! state mutation, so replication is journal shipping: a [`Replicator`]
//! reads the leader's tail past the follower's shipped watermark
//! ([`PerseusServer::replication_tail`]) and hands the records to a
//! [`FollowerServer`], which appends them to its *own* journal first
//! (ship-then-apply — a crashed follower recovers from its local WAL,
//! exactly like a crashed leader) and then applies them through the same
//! `replay_event` path recovery uses. Apply lag is bounded: the follower
//! keeps at most `max_lag` shipped-but-unapplied records, so promotion
//! replays at most that many — never from genesis.
//!
//! When the leader compacts its journal below the follower's position,
//! the gap is bridged by a checkpoint transfer
//! ([`PerseusServer::replication_checkpoint`]): the follower installs
//! the full-state snapshot at the leader's watermark into the server it
//! already runs and resumes tailing from there. Still never from
//! genesis. The checkpoint shares the leader's segments, so the follower
//! persists only the small snapshot plus the segment files its directory
//! lacks.
//!
//! [`FollowerServer::promote`] applies the pending tail, attaches the
//! follower's journal + snapshot as a durable [`Store`], and flips the
//! role to [`Role::Leader`]. Because planning is deterministic in the
//! journaled inputs, the promoted server's
//! [`PerseusServer::state_fingerprint`] is bit-identical to the
//! leader's at the shipped watermark — gated by the `ha` group of the
//! `claims` bin.

use std::collections::VecDeque;
use std::path::Path;
use std::path::PathBuf;
use std::sync::Arc;

use perseus_store::{Journal, Persist, Record, StoreError};
use perseus_telemetry::{span, Telemetry};

use crate::server::{PerseusServer, Role, ServerConfig, ServerError};
use crate::store::{open_dir, persist, JournalEvent, OpenedDir, ServerSnapshot, Store};

/// Journal frame overhead per record: `len:u32 + crc:u32 + seq:u64`.
const FRAME_OVERHEAD: u64 = 16;

/// How many shipped-but-unapplied records a follower tolerates before
/// applying synchronously during [`FollowerServer::receive`]. Promotion
/// replays at most this many records.
pub const DEFAULT_MAX_LAG: u64 = 64;

/// Point-in-time replication position of one follower. `shipped` and
/// `applied` are journal sequence watermarks; the lag fields describe
/// the queue between them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicationStats {
    /// Highest sequence shipped into the follower's journal.
    pub shipped: u64,
    /// Highest sequence applied into the follower's in-memory state.
    pub applied: u64,
    /// Records shipped but not yet applied (`<= max_lag` after every
    /// [`FollowerServer::receive`]).
    pub lag_records: u64,
    /// Bytes (payload + frame) of the shipped-but-unapplied queue.
    pub lag_bytes: u64,
}

/// What a promotion did: how much tail it had to replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PromotionReport {
    /// Shipped-but-unapplied records replayed during promotion — bounded
    /// by the follower's `max_lag`, never the journal's full length.
    pub replayed_records: u64,
}

/// A shipped record waiting to be applied, decoded once on receipt.
struct Pending {
    seq: u64,
    /// Payload plus frame bytes, for the lag accounting.
    bytes: u64,
    event: JournalEvent,
}

/// A replication follower: a read-only [`PerseusServer`] plus the local
/// journal the leader's records are shipped into. See the module docs.
pub struct FollowerServer {
    /// The follower's store directory: journal, snapshot and segments.
    dir: PathBuf,
    journal: Journal,
    state: PerseusServer,
    /// Shipped-but-unapplied records, oldest first.
    pending: VecDeque<Pending>,
    pending_bytes: u64,
    shipped_seq: u64,
    applied_seq: u64,
    max_lag: u64,
    /// Frontier segment files written by checkpoint installs.
    segments_written: u64,
}

impl FollowerServer {
    /// Opens (or creates) a follower rooted at `dir`, its server built
    /// from `cfg`. The config outlives checkpoint installs and is handed
    /// on to the promoted leader. State already in `dir` — a previous
    /// follower lifetime, including one that crashed mid-ship — is
    /// recovered from the local snapshot + journal; a torn shipped record
    /// is truncated exactly like [`Journal::open`] always does, and the
    /// next [`Replicator::sync`] re-ships the lost suffix from the leader.
    ///
    /// # Errors
    ///
    /// [`ServerError::Store`] if the directory or journal is unusable or
    /// `server.snap` is of the previous format (as
    /// [`PerseusServer::open`]).
    pub fn open(dir: impl AsRef<Path>, cfg: ServerConfig) -> Result<FollowerServer, ServerError> {
        let dir = dir.as_ref();
        let OpenedDir {
            journal,
            records,
            snapshot,
            ..
        } = open_dir(dir)?;
        let state = PerseusServer::new(cfg);
        state.set_role(Role::Follower, String::new());
        // The same recovery as a leader's: a corrupt local snapshot falls
        // back to journal-only replay.
        let applied_seq = state.recover_state(snapshot, &records).applied_seq;
        let follower = FollowerServer {
            dir: dir.to_path_buf(),
            journal,
            state,
            pending: VecDeque::new(),
            pending_bytes: 0,
            shipped_seq: applied_seq,
            applied_seq,
            max_lag: DEFAULT_MAX_LAG,
            segments_written: 0,
        };
        follower.publish_stats();
        Ok(follower)
    }

    /// [`FollowerServer::open`] with `n_workers` planning workers,
    /// `telemetry`, and every other value at its default. A shorthand
    /// kept because the benchmark harness (`perfbench/`) calls it; new
    /// code builds a [`ServerConfig`].
    ///
    /// # Errors
    ///
    /// As [`FollowerServer::open`].
    pub fn open_with(
        dir: impl AsRef<Path>,
        n_workers: usize,
        telemetry: Telemetry,
    ) -> Result<FollowerServer, ServerError> {
        FollowerServer::open(
            dir,
            ServerConfig {
                workers: n_workers,
                telemetry,
                ..ServerConfig::default()
            },
        )
    }

    /// The follower's read-only server: statuses, frontiers, and
    /// fingerprints reflect everything applied so far; every mutation
    /// answers [`ServerError::NotLeader`]. The same server for the
    /// follower's whole life: checkpoints install into it.
    pub fn server(&self) -> &PerseusServer {
        &self.state
    }

    /// Bounds the shipped-but-unapplied queue (floored at 0 = apply
    /// everything synchronously on receive).
    pub fn set_max_lag(&mut self, max_lag: u64) {
        self.max_lag = max_lag;
        while self.pending.len() as u64 > self.max_lag {
            self.apply_front();
        }
        self.publish_stats();
    }

    /// Highest sequence shipped into the local journal.
    pub fn shipped_seq(&self) -> u64 {
        self.shipped_seq
    }

    /// Highest sequence applied into the in-memory state.
    pub fn applied_seq(&self) -> u64 {
        self.applied_seq
    }

    /// Frontier segment files this follower wrote while installing
    /// checkpoints: one per frontier its directory lacked, so a
    /// checkpoint of unchanged frontiers writes none.
    pub fn segments_written(&self) -> u64 {
        self.segments_written
    }

    /// Current replication position.
    pub fn stats(&self) -> ReplicationStats {
        ReplicationStats {
            shipped: self.shipped_seq,
            applied: self.applied_seq,
            lag_records: self.pending.len() as u64,
            lag_bytes: self.pending_bytes,
        }
    }

    fn publish_stats(&self) {
        self.state.set_replication_stats(self.stats());
    }

    /// Ingests a gap-free run of leader records: each is decoded, appended
    /// to the local journal (ship), queued, and — once the queue exceeds
    /// `max_lag` — applied oldest-first until the lag bound holds again.
    /// Records at or below the shipped watermark are skipped, so
    /// re-shipping after a retry or a torn-tail resync is idempotent.
    ///
    /// A record that fails its frame checksum or does not decode stops
    /// the run before it is shipped: the local journal only ever holds
    /// records the leader wrote and that replay, so reopening the
    /// follower's directory recovers exactly the state it serves, and that
    /// state is one the leader passed through.
    ///
    /// # Errors
    ///
    /// [`ServerError::Store`] on journal I/O failures, on a sequence gap
    /// (the caller should bootstrap via [`Replicator::sync`]'s checkpoint
    /// path), or on a record whose checksum fails or whose payload does
    /// not decode. Records before the failing one stay shipped.
    pub fn receive(&mut self, records: &[Record]) -> Result<ReplicationStats, ServerError> {
        let shipped = self.ship(records);
        while self.pending.len() as u64 > self.max_lag {
            self.apply_front();
        }
        self.publish_stats();
        shipped.map(|()| self.stats())
    }

    /// The shipping half of [`FollowerServer::receive`]: check, decode,
    /// journal and queue each new record, stopping at the first that
    /// fails.
    fn ship(&mut self, records: &[Record]) -> Result<(), ServerError> {
        for rec in records {
            if rec.seq <= self.shipped_seq {
                continue;
            }
            if rec.seq != self.shipped_seq + 1 {
                return Err(ServerError::Store(StoreError::Corrupt {
                    reason: format!(
                        "replication gap: expected sequence {}, got {}",
                        self.shipped_seq + 1,
                        rec.seq
                    ),
                }));
            }
            if !rec.is_intact() {
                return Err(ServerError::Store(StoreError::Corrupt {
                    reason: format!("shipped record {} fails its checksum", rec.seq),
                }));
            }
            let event = JournalEvent::from_bytes(&rec.payload).map_err(|e| {
                ServerError::Store(StoreError::Corrupt {
                    reason: format!("shipped record {} does not decode: {e}", rec.seq),
                })
            })?;
            self.journal.append_with_seq(rec.seq, &rec.payload)?;
            self.shipped_seq = rec.seq;
            let bytes = rec.payload.len() as u64 + FRAME_OVERHEAD;
            self.pending_bytes += bytes;
            self.pending.push_back(Pending {
                seq: rec.seq,
                bytes,
                event,
            });
        }
        Ok(())
    }

    /// Applies every shipped-but-unapplied record, catching the state up
    /// to the shipped watermark. Returns how many were applied.
    pub fn apply_all(&mut self) -> u64 {
        let n = self.pending.len() as u64;
        while !self.pending.is_empty() {
            self.apply_front();
        }
        self.publish_stats();
        n
    }

    fn apply_front(&mut self) {
        let Some(next) = self.pending.pop_front() else {
            return;
        };
        self.pending_bytes = self.pending_bytes.saturating_sub(next.bytes);
        self.state.replay_event(next.event);
        self.applied_seq = next.seq;
    }

    /// Installs a full-state checkpoint from the leader (compaction gap
    /// bridge), inside a `checkpoint` span: the snapshot is persisted
    /// locally — only the segment files the directory lacks are written —
    /// the local journal, whose every record the checkpoint covers, is
    /// truncated, the running server's jobs are swapped for the
    /// snapshot's, and shipping resumes from the checkpoint's watermark.
    pub(crate) fn install_checkpoint(&mut self, snap: ServerSnapshot) -> Result<(), ServerError> {
        let tel = &self.state.config().telemetry;
        let _span = span!(tel, "checkpoint");
        self.segments_written += persist(&self.dir, &mut self.journal, &snap, tel)?;
        self.shipped_seq = snap.applied_seq;
        self.applied_seq = snap.applied_seq;
        self.pending.clear();
        self.pending_bytes = 0;
        self.state.restore_snapshot(snap);
        self.publish_stats();
        Ok(())
    }

    /// Promotes this follower to leader: the pending tail (at most
    /// `max_lag` records — never the journal from genesis) is applied,
    /// the local journal + snapshot become the promoted server's durable
    /// store, and the role flips to [`Role::Leader`]. The promoted
    /// server keeps the follower's [`ServerConfig`] — its fault injector,
    /// snapshot cadence and the rest. Its
    /// [`PerseusServer::state_fingerprint`] is bit-identical to the old
    /// leader's at the shipped watermark.
    ///
    /// # Errors
    ///
    /// [`ServerError::Store`] if folding the promoted state into a
    /// snapshot fails (the state itself is already consistent).
    pub fn promote(mut self) -> Result<(PerseusServer, PromotionReport), ServerError> {
        let replayed_records = self.apply_all();
        let FollowerServer {
            dir,
            journal,
            mut state,
            ..
        } = self;
        let store = Arc::new(Store::new(journal, dir, state.config()));
        state.attach_store(store);
        state.set_role(Role::Leader, String::new());
        state.set_replication_stats(ReplicationStats::default());
        // Fold the promoted state into a fresh snapshot so the next open
        // of this directory recovers from it instead of the full tail.
        state.snapshot_now()?;
        Ok((state, PromotionReport { replayed_records }))
    }
}

/// Ships the leader's journal to followers. Stateless beyond the leader
/// handle — the follower owns its own position, so one replicator can
/// serve any number of followers.
pub struct Replicator {
    leader: Arc<PerseusServer>,
}

impl Replicator {
    /// A replicator shipping from `leader` (which must be durable —
    /// the journal is the shipping medium).
    pub fn new(leader: Arc<PerseusServer>) -> Replicator {
        Replicator { leader }
    }

    /// The leader this replicator ships from.
    pub fn leader(&self) -> &Arc<PerseusServer> {
        &self.leader
    }

    /// Ships everything the follower has not yet seen. If the leader has
    /// compacted past the follower's position, a checkpoint transfer
    /// bridges the gap first (`FollowerServer::install_checkpoint`);
    /// tailing then resumes from the checkpoint watermark. Returns the
    /// number of records shipped this call.
    ///
    /// # Errors
    ///
    /// [`ServerError::Store`] on journal I/O failures, on an in-memory
    /// leader, or if the follower reports a position ahead of the leader
    /// (divergent histories — a follower of a *different* leader).
    pub fn sync(&self, follower: &mut FollowerServer) -> Result<u64, ServerError> {
        let watermark = self.leader.replication_watermark()?;
        let from = follower.shipped_seq();
        if from > watermark {
            return Err(ServerError::Store(StoreError::Corrupt {
                reason: format!(
                    "follower at sequence {from} is ahead of leader watermark {watermark}: \
                     divergent histories"
                ),
            }));
        }
        let tail = self.leader.replication_tail(from)?;
        let contiguous = tail
            .first()
            .map_or(from >= watermark, |r| r.seq == from + 1);
        if !contiguous {
            // Compaction dropped the needed range: bridge with a
            // checkpoint, then tail from its watermark.
            let snap = self.leader.replication_checkpoint()?;
            follower.install_checkpoint(snap)?;
            let tail = self.leader.replication_tail(follower.shipped_seq())?;
            let shipped = tail.len() as u64;
            follower.receive(&tail)?;
            return Ok(shipped);
        }
        let shipped = tail.len() as u64;
        follower.receive(&tail)?;
        Ok(shipped)
    }
}
