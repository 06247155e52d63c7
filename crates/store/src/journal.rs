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
//! Sequence numbers ascend strictly; they are the replay watermark
//! (records at or below a snapshot's sequence are skipped) and the
//! idempotence key (a record whose sequence was already applied is a
//! no-op on replay).
//!
//! # Corruption semantics
//!
//! [`Journal::open`] scans the file record by record and stops at the
//! first record that is torn (length overruns the file), fails its CRC,
//! or decodes to a non-monotone sequence. The file is truncated to the
//! last valid record and the journal continues from there — a crash
//! mid-append or a scribbled tail loses the unreadable suffix, nothing
//! before it. No resynchronization is attempted past the first bad
//! record: once framing is lost, anything after it is untrustworthy.

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
        let mut records = Vec::new();
        let mut end = HEADER_LEN;
        let mut next_seq = 1u64;

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
                match next_record(&bytes, pos, next_seq) {
                    Some((seq, crc, payload, next_pos)) => {
                        records.push(Record {
                            seq,
                            payload: payload.to_vec(),
                            crc,
                        });
                        next_seq = seq + 1;
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
        Ok((
            Journal {
                file,
                path,
                end,
                next_seq,
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

    /// Appends a record with an explicit sequence number (compaction and
    /// test-journal construction; live appends use [`Journal::append`]).
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
        self.next_seq = self.next_seq.max(seq + 1);
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

    /// Drops every record at or below `watermark` by atomically rewriting
    /// the journal (called after a snapshot covering those records). The
    /// sequence counter is preserved, so post-compaction appends continue
    /// the same numbering — and never restart at or below `watermark`,
    /// whose numbers the snapshot owns even when this journal never held
    /// them (a follower installing a leader's checkpoint).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures.
    pub fn compact_below(&mut self, watermark: u64) -> Result<(), StoreError> {
        // Re-read the surviving tail from our own valid range.
        let mut bytes = Vec::with_capacity(self.end as usize);
        self.file.seek(SeekFrom::Start(0))?;
        std::io::Read::by_ref(&mut self.file)
            .take(self.end)
            .read_to_end(&mut bytes)?;
        let mut keep: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut pos = HEADER_LEN as usize;
        let mut expect = 1u64;
        while let Some((seq, _, payload, next_pos)) = next_record(&bytes, pos, expect) {
            if seq > watermark {
                keep.push((seq, payload.to_vec()));
            }
            expect = seq + 1;
            pos = next_pos;
        }

        let tmp = self.path.with_extension("journal.tmp");
        {
            let mut out = File::create(&tmp)?;
            out.write_all(MAGIC)?;
            out.write_all(&VERSION.to_le_bytes())?;
            for (seq, payload) in &keep {
                let body = frame_body(*seq, payload);
                out.write_all(&(body.len() as u32).to_le_bytes())?;
                out.write_all(&crc32(&body).to_le_bytes())?;
                out.write_all(&body)?;
            }
            out.sync_data()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        let next_seq = self.next_seq;
        let stats = self.stats;
        let (reopened, _) = Journal::open(&self.path)?;
        self.file = reopened.file;
        self.end = reopened.end;
        self.next_seq = next_seq
            .max(reopened.next_seq)
            .max(watermark.saturating_add(1));
        self.stats = stats;
        Ok(())
    }

    /// Every valid record with sequence strictly greater than
    /// `after_seq`, in order — the replication feed. Re-reads the
    /// journal's own valid range (like [`Journal::compact_below`]), so a
    /// scribbled-but-unflushed tail never ships downstream.
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
        let mut expect = 1u64;
        while let Some((seq, crc, payload, next_pos)) = next_record(&bytes, pos, expect) {
            if seq > after_seq {
                out.push(Record {
                    seq,
                    payload: payload.to_vec(),
                    crc,
                });
            }
            expect = seq + 1;
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
/// whose sequence is at least `min_seq`.
fn next_record(bytes: &[u8], pos: usize, min_seq: u64) -> Option<(u64, u32, &[u8], usize)> {
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
    if seq < min_seq {
        // Sequences ascend strictly; a rewind means the framing drifted
        // onto stale bytes.
        return None;
    }
    Some((seq, crc, &body[8..], body_end))
}
