//! The write-ahead journal: an append-only file of checksummed,
//! length-prefixed records.
//!
//! # On-disk format
//!
//! ```text
//! file   := header record*
//! header := magic:"PWAL" version:u32le
//! record := len:u32le crc:u32le body          (len = body length in bytes)
//! body   := seq:u64le payload:bytes           (crc = crc32(body))
//! ```
//!
//! Within one file, sequence numbers are consecutive: the first record
//! may carry any sequence (a compacted journal starts past the snapshot
//! that covers the rest) and every later one its predecessor's plus one.
//! They are the replay watermark (records at or below a snapshot's
//! sequence are skipped) and the idempotence key (a record whose
//! sequence was already applied is a no-op on replay).
//!
//! # Corruption semantics
//!
//! [`Journal::open`] scans the file record by record and stops at the
//! first record that is torn (length overruns the file), fails its CRC,
//! or breaks the consecutive numbering — a rewind onto stale bytes, or a
//! gap where a record went missing. The file is truncated to the last
//! valid record and the journal continues from there — a crash
//! mid-append or a scribbled tail loses the unreadable suffix, nothing
//! before it, and no record is ever replayed without its predecessor. No
//! resynchronization is attempted past the first bad record: once
//! framing is lost, anything after it is untrustworthy.
//!
//! # Compaction
//!
//! [`Journal::compact_below`] drops every record once a snapshot covers
//! them all, by truncating the file to its header in place. The
//! truncation is not synced: if a crash loses it, the records it dropped
//! reappear, and they are harmless. Alone, they sit at or below the
//! snapshot's watermark, so replay skips them; whoever opens the journal
//! under that snapshot compacts them again before appending, since a
//! record appended behind them would break the consecutive numbering and
//! be lost at the next open. Behind records appended after the
//! truncation, they break the numbering (their sequences are at or below
//! the watermark, the new ones above it), so the scan stops at them.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::checksum::crc32;
use crate::codec::StoreError;

const MAGIC: &[u8; 4] = b"PWAL";
const VERSION: u32 = 1;
const HEADER_LEN: u64 = 8;
/// Upper bound on one record body; a length prefix beyond this is treated
/// as corruption rather than an allocation request.
const MAX_RECORD_LEN: u32 = 256 * 1024 * 1024;

/// One journal record: its sequence number, opaque payload, and the
/// checksum its frame carried.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Strictly ascending sequence number (1-based).
    pub seq: u64,
    /// The event bytes (encoded by the journal's user).
    pub payload: Vec<u8>,
    /// The frame's CRC-32 of `seq` (u64le) followed by `payload`. It
    /// travels with a shipped record, so a receiver can refuse one that
    /// was altered after it left the journal ([`Record::is_intact`]).
    pub crc: u32,
}

impl Record {
    /// Whether `crc` still matches `seq` and `payload`.
    pub fn is_intact(&self) -> bool {
        crc32(&frame_body(self.seq, &self.payload)) == self.crc
    }
}

/// A record's frame body, the bytes its CRC covers: `seq` (u64le), then
/// `payload`.
fn frame_body(seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut body = Vec::with_capacity(8 + payload.len());
    body.extend_from_slice(&seq.to_le_bytes());
    body.extend_from_slice(payload);
    body
}

/// Counters describing a journal's history since it was opened.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Records appended through this handle.
    pub appends: u64,
    /// Valid records found on disk when the journal was opened.
    pub recovered_records: u64,
    /// Unreadable tail segments discarded at open (0 or 1 per open: once
    /// framing is lost nothing after the first bad record is parseable).
    pub truncated_records: u64,
    /// Bytes the open-time truncation discarded.
    pub truncated_bytes: u64,
}

/// An open write-ahead journal. See the module docs for the format.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
    /// Byte offset of the end of the last valid record.
    end: u64,
    /// Sequence of the last record in the file, if it holds any.
    last_seq: Option<u64>,
    next_seq: u64,
    stats: JournalStats,
}

impl Journal {
    /// Opens (or creates) the journal at `path`, scans it, truncates any
    /// unreadable tail, and returns the handle plus every valid record in
    /// order — the replay input.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures, [`StoreError::Corrupt`]
    /// if the file exists but its header is not a journal header (a
    /// header-less file is *not* silently truncated to empty — that would
    /// destroy a file the caller pointed at by mistake).
    pub fn open(path: impl Into<PathBuf>) -> Result<(Journal, Vec<Record>), StoreError> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let file_len = file.metadata()?.len();

        let mut stats = JournalStats::default();
        let mut records: Vec<Record> = Vec::new();
        let mut end = HEADER_LEN;

        if file_len == 0 {
            // Fresh journal: write the header.
            file.write_all(MAGIC)?;
            file.write_all(&VERSION.to_le_bytes())?;
            file.flush()?;
        } else {
            let mut bytes = Vec::with_capacity(file_len as usize);
            file.seek(SeekFrom::Start(0))?;
            file.read_to_end(&mut bytes)?;
            if bytes.len() < HEADER_LEN as usize || &bytes[0..4] != MAGIC {
                return Err(StoreError::corrupt(format!(
                    "{} is not a Perseus journal (bad magic)",
                    path.display()
                )));
            }
            let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
            if version != VERSION {
                return Err(StoreError::corrupt(format!(
                    "unsupported journal version {version}"
                )));
            }
            let mut pos = HEADER_LEN as usize;
            loop {
                match next_record(&bytes, pos, records.last().map(|r| r.seq)) {
                    Some((seq, crc, payload, next_pos)) => {
                        records.push(Record {
                            seq,
                            payload: payload.to_vec(),
                            crc,
                        });
                        pos = next_pos;
                        end = next_pos as u64;
                    }
                    None => {
                        if pos < bytes.len() {
                            stats.truncated_records = 1;
                            stats.truncated_bytes = (bytes.len() - pos) as u64;
                        }
                        break;
                    }
                }
            }
            stats.recovered_records = records.len() as u64;
            // Truncate the unreadable tail so future appends extend a
            // valid file.
            file.set_len(end)?;
        }
        file.seek(SeekFrom::Start(end))?;
        let last_seq = records.last().map(|r| r.seq);
        Ok((
            Journal {
                file,
                path,
                end,
                last_seq,
                next_seq: last_seq.map_or(1, |seq| seq.saturating_add(1)),
                stats,
            },
            records,
        ))
    }

    /// Appends a record with the next sequence number; returns that
    /// sequence. The write is flushed to the OS before returning.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on write failures.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, StoreError> {
        let seq = self.next_seq;
        self.append_with_seq(seq, payload)?;
        Ok(seq)
    }

    /// Appends a record with an explicit sequence number (a follower
    /// journaling a leader's records, and test-journal construction; live
    /// appends use [`Journal::append`]).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on write failures.
    pub fn append_with_seq(&mut self, seq: u64, payload: &[u8]) -> Result<(), StoreError> {
        let body = frame_body(seq, payload);
        let mut frame = Vec::with_capacity(8 + body.len());
        frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&body).to_le_bytes());
        frame.extend_from_slice(&body);
        self.file.write_all(&frame)?;
        self.file.flush()?;
        self.end += frame.len() as u64;
        self.last_seq = Some(seq);
        self.next_seq = self.next_seq.max(seq.saturating_add(1));
        self.stats.appends += 1;
        Ok(())
    }

    /// The sequence number the next [`Journal::append`] will use.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Counters for this handle (appends, open-time recovery/truncation).
    pub fn stats(&self) -> JournalStats {
        self.stats
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Byte length of the valid journal (header + records).
    pub fn len_bytes(&self) -> u64 {
        self.end
    }

    /// Forces the journal contents to stable storage (fsync).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the sync fails.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.file.sync_data()?;
        Ok(())
    }

    /// Drops every record once a snapshot covering all of them — its
    /// watermark at or past the last record — is durable, by truncating
    /// the file to its header in place (see the module docs for why a
    /// lost truncation is harmless). The sequence counter moves past
    /// `watermark`, so later appends continue the numbering — and never
    /// restart at or below `watermark`, whose numbers the snapshot owns
    /// even when this journal never held them (a follower installing a
    /// leader's checkpoint). A record reusing one would replay over a
    /// state that already holds the original.
    ///
    /// # Errors
    ///
    /// [`StoreError::Uncovered`], leaving every record in place, if
    /// `watermark` is below the last record; [`StoreError::Io`] on
    /// filesystem failures.
    pub fn compact_below(&mut self, watermark: u64) -> Result<(), StoreError> {
        if let Some(last) = self.last_seq.filter(|&last| last > watermark) {
            return Err(StoreError::Uncovered { watermark, last });
        }
        self.file.set_len(HEADER_LEN)?;
        self.file.seek(SeekFrom::Start(HEADER_LEN))?;
        self.end = HEADER_LEN;
        self.last_seq = None;
        self.next_seq = self.next_seq.max(watermark.saturating_add(1));
        Ok(())
    }

    /// Every valid record with sequence strictly greater than
    /// `after_seq`, in order — the replication feed. Re-reads the
    /// journal's own valid range, so a scribbled-but-unflushed tail never
    /// ships downstream.
    ///
    /// Compaction may have dropped records at or below a snapshot
    /// watermark; callers asking for a tail older than the oldest
    /// surviving record must fall back to a checkpoint transfer. The
    /// returned records always form a gap-free run ending at the
    /// journal's last appended sequence.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures.
    pub fn tail_from(&mut self, after_seq: u64) -> Result<Vec<Record>, StoreError> {
        let mut bytes = Vec::with_capacity(self.end as usize);
        self.file.seek(SeekFrom::Start(0))?;
        std::io::Read::by_ref(&mut self.file)
            .take(self.end)
            .read_to_end(&mut bytes)?;
        self.file.seek(SeekFrom::Start(self.end))?;
        let mut out = Vec::new();
        let mut pos = HEADER_LEN as usize;
        let mut prev = None;
        while let Some((seq, crc, payload, next_pos)) = next_record(&bytes, pos, prev) {
            if seq > after_seq {
                out.push(Record {
                    seq,
                    payload: payload.to_vec(),
                    crc,
                });
            }
            prev = Some(seq);
            pos = next_pos;
        }
        Ok(out)
    }

    /// Chaos hook: writes `garbage` straight into the record stream at
    /// the journal's cursor, simulating a scribbled tail. Every record
    /// appended *after* the scribble is unreachable on the next open
    /// (framing is lost at the garbage), which is exactly the failure
    /// mode [`Journal::open`]'s truncation recovers from.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on write failures.
    pub fn scribble_garbage(&mut self, garbage: &[u8]) -> Result<(), StoreError> {
        self.file.write_all(garbage)?;
        self.file.flush()?;
        self.end += garbage.len() as u64;
        Ok(())
    }
}

/// Parses the record starting at `pos`, returning `(seq, crc, payload,
/// next_pos)` or `None` if the bytes from `pos` are not a valid record
/// following the record numbered `prev` (any sequence from 1 for the
/// first record, `prev + 1` after it).
fn next_record(bytes: &[u8], pos: usize, prev: Option<u64>) -> Option<(u64, u32, &[u8], usize)> {
    let frame_start = pos;
    if bytes.len() - frame_start < 8 {
        return None;
    }
    let len = u32::from_le_bytes(bytes[frame_start..frame_start + 4].try_into().ok()?);
    let crc = u32::from_le_bytes(bytes[frame_start + 4..frame_start + 8].try_into().ok()?);
    if !(8..=MAX_RECORD_LEN).contains(&len) {
        return None;
    }
    let body_start = frame_start + 8;
    let body_end = body_start.checked_add(len as usize)?;
    if body_end > bytes.len() {
        return None; // torn write: record extends past end of file
    }
    let body = &bytes[body_start..body_end];
    if crc32(body) != crc {
        return None;
    }
    let seq = u64::from_le_bytes(body[0..8].try_into().ok()?);
    let follows = match prev {
        None => seq >= 1,
        Some(prev) => prev.checked_add(1) == Some(seq),
    };
    if !follows {
        // A rewind means the framing drifted onto stale bytes; a gap
        // means a record went missing, and replaying past it would build
        // a state no run passed through.
        return None;
    }
    Some((seq, crc, &body[8..], body_end))
}
