//! Unit tests for the codec, journal, and snapshot primitives.

use std::io::{Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::{
    crc32, load_snapshot, write_snapshot, ByteReader, ByteWriter, Journal, Persist, StoreError,
};

/// A unique scratch directory per call, cleaned up on drop.
struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    fn new(tag: &str) -> Scratch {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("perseus-store-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch { dir }
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[test]
fn crc32_matches_known_vectors() {
    // Standard CRC-32/IEEE check value.
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(b""), 0);
    assert_eq!(
        crc32(b"The quick brown fox jumps over the lazy dog"),
        0x414F_A339
    );
}

/// The byte-at-a-time CRC-32/IEEE walk: the reference the sliced
/// implementation must agree with on every input.
fn crc32_bytewise(data: &[u8]) -> u32 {
    let mut table = [0u32; 256];
    for (i, slot) in table.iter_mut().enumerate() {
        let mut c = i as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 {
                (c >> 1) ^ 0xEDB8_8320
            } else {
                c >> 1
            };
        }
        *slot = c;
    }
    let mut c = !0u32;
    for &b in data {
        c = (c >> 8) ^ table[((c ^ u32::from(b)) & 0xFF) as usize];
    }
    !c
}

/// SplitMix64 byte stream for the randomized checksum comparison.
fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed;
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        out.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
    }
    out.truncate(len);
    out
}

#[test]
fn crc32_matches_the_bytewise_reference() {
    for len in 0..=64 {
        for seed in 0..4 {
            let data = random_bytes(seed * 1000 + len as u64, len);
            assert_eq!(crc32(&data), crc32_bytewise(&data), "length {len}");
        }
    }
    // Multi-MiB buffers, with lengths that leave every tail size, and
    // every start offset within one stride.
    let big = random_bytes(0xC4C3_2000, 3 * 1024 * 1024 + 15);
    for cut in [0, 1, 7, 15] {
        let data = &big[cut..big.len() - (15 - cut)];
        assert_eq!(crc32(data), crc32_bytewise(data), "offset {cut}");
    }
    assert_eq!(crc32(&big), crc32_bytewise(&big));
}

#[test]
fn codec_round_trips_primitives_bit_exactly() {
    let mut w = ByteWriter::new();
    w.put_u8(0xAB);
    w.put_u32(0xDEAD_BEEF);
    w.put_u64(u64::MAX);
    w.put_f64(-0.0);
    w.put_f64(f64::NAN);
    w.put_f64(f64::MIN_POSITIVE / 2.0); // subnormal
    w.put_bool(true);
    w.put_str("pareto");
    let bytes = w.into_bytes();

    let mut r = ByteReader::new(&bytes);
    assert_eq!(r.get_u8().unwrap(), 0xAB);
    assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
    assert_eq!(r.get_u64().unwrap(), u64::MAX);
    assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
    assert_eq!(r.get_f64().unwrap().to_bits(), f64::NAN.to_bits());
    assert_eq!(
        r.get_f64().unwrap().to_bits(),
        (f64::MIN_POSITIVE / 2.0).to_bits()
    );
    assert!(r.get_bool().unwrap());
    assert_eq!(r.get_str().unwrap(), "pareto");
    assert!(r.is_exhausted());
}

#[test]
fn codec_rejects_truncation_and_bad_tags() {
    let bytes = 42u64.to_bytes();
    assert!(u64::from_bytes(&bytes[..7]).is_err());

    // Option tag 2 is invalid.
    assert!(Option::<u64>::from_bytes(&[2]).is_err());
    // Bool byte 7 is invalid.
    assert!(bool::from_bytes(&[7]).is_err());

    // A Vec length prefix far beyond the remaining bytes must error, not
    // allocate.
    let mut w = ByteWriter::new();
    w.put_usize(usize::MAX / 2);
    assert!(Vec::<u64>::from_bytes(w.bytes()).is_err());

    // Trailing garbage after a complete value is rejected.
    let mut bytes = 1u32.to_bytes();
    bytes.push(0);
    assert!(u32::from_bytes(&bytes).is_err());
}

#[test]
fn codec_round_trips_containers() {
    let v: Vec<Option<(u64, f64)>> = vec![None, Some((3, 1.5)), Some((u64::MAX, f64::INFINITY))];
    let bytes = v.to_bytes();
    assert_eq!(Vec::<Option<(u64, f64)>>::from_bytes(&bytes).unwrap(), v);

    let s: Vec<String> = vec!["a".into(), String::new(), "journal".into()];
    assert_eq!(Vec::<String>::from_bytes(&s.to_bytes()).unwrap(), s);
}

#[test]
fn journal_appends_and_replays_in_order() {
    let scratch = Scratch::new("replay");
    let path = scratch.path("wal");
    {
        let (mut j, recs) = Journal::open(&path).unwrap();
        assert!(recs.is_empty());
        assert_eq!(j.append(b"one").unwrap(), 1);
        assert_eq!(j.append(b"two").unwrap(), 2);
        assert_eq!(j.append(b"three").unwrap(), 3);
        assert_eq!(j.stats().appends, 3);
    }
    let (j, recs) = Journal::open(&path).unwrap();
    assert_eq!(recs.len(), 3);
    assert_eq!(recs[0].payload, b"one");
    assert_eq!(recs[2].payload, b"three");
    assert_eq!(recs.iter().map(|r| r.seq).collect::<Vec<_>>(), [1, 2, 3]);
    assert_eq!(j.next_seq(), 4);
    assert_eq!(j.stats().recovered_records, 3);
    assert_eq!(j.stats().truncated_records, 0);
}

#[test]
fn journal_truncates_torn_write_at_every_offset() {
    let scratch = Scratch::new("torn");
    let path = scratch.path("wal");
    let full_len = {
        let (mut j, _) = Journal::open(&path).unwrap();
        j.append(b"alpha").unwrap();
        j.append(b"beta-longer-payload").unwrap();
        j.append(b"gamma").unwrap();
        j.len_bytes()
    };
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(bytes.len() as u64, full_len);

    // Record boundaries: header (8), then each frame is 8 bytes of
    // framing plus 8 bytes of sequence plus the payload.
    let expected: [&[u8]; 3] = [b"alpha", b"beta-longer-payload", b"gamma"];
    let mut boundaries = vec![8usize];
    for p in expected {
        boundaries.push(boundaries.last().unwrap() + 16 + p.len());
    }
    assert_eq!(*boundaries.last().unwrap(), bytes.len());

    // Truncate the file at every possible byte offset and confirm the
    // journal recovers the longest valid prefix without panicking.
    for cut in 8..bytes.len() {
        let torn = scratch.path(&format!("torn-{cut}"));
        std::fs::write(&torn, &bytes[..cut]).unwrap();
        let (j, recs) = Journal::open(&torn).unwrap();
        // The recovered prefix is exactly the records whose frames fit
        // entirely below the cut, in order.
        let n_whole = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
        assert_eq!(recs.len(), n_whole, "cut at {cut}");
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(r.seq, i as u64 + 1);
            assert_eq!(r.payload, expected[i]);
        }
        // Truncation stats fire exactly when the cut left a torn frame.
        let torn_tail = !boundaries.contains(&cut);
        let stats = j.stats();
        assert_eq!(
            stats.truncated_records,
            u64::from(torn_tail),
            "cut at {cut}"
        );
        assert_eq!(stats.truncated_bytes > 0, torn_tail, "cut at {cut}");
    }
}

#[test]
fn journal_truncates_corrupted_tail_and_keeps_appending() {
    let scratch = Scratch::new("corrupt");
    let path = scratch.path("wal");
    {
        let (mut j, _) = Journal::open(&path).unwrap();
        j.append(b"keep-me").unwrap();
        j.append(b"flip-me").unwrap();
    }
    // Flip a byte inside the second record's payload.
    let mut bytes = std::fs::read(&path).unwrap();
    let last = bytes.len() - 2;
    bytes[last] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();

    let (mut j, recs) = Journal::open(&path).unwrap();
    assert_eq!(recs.len(), 1);
    assert_eq!(recs[0].payload, b"keep-me");
    assert_eq!(j.stats().truncated_records, 1);

    // The journal stays usable: the next append lands after the valid
    // prefix and is recovered cleanly on the next open.
    j.append(b"after-recovery").unwrap();
    drop(j);
    let (_, recs) = Journal::open(&path).unwrap();
    assert_eq!(recs.len(), 2);
    assert_eq!(recs[1].payload, b"after-recovery");
    assert_eq!(recs[1].seq, 2);
}

#[test]
fn journal_scribble_poisons_only_the_suffix() {
    let scratch = Scratch::new("scribble");
    let path = scratch.path("wal");
    {
        let (mut j, _) = Journal::open(&path).unwrap();
        j.append(b"before").unwrap();
        j.scribble_garbage(&[0xFF; 64]).unwrap();
        j.append(b"lost-to-scribble").unwrap();
    }
    let (_, recs) = Journal::open(&path).unwrap();
    assert_eq!(recs.len(), 1);
    assert_eq!(recs[0].payload, b"before");
}

#[test]
fn journal_rejects_foreign_files() {
    let scratch = Scratch::new("foreign");
    let path = scratch.path("not-a-journal");
    std::fs::write(&path, b"this is somebody else's data, do not truncate it").unwrap();
    assert!(Journal::open(&path).is_err());
    // The file is untouched.
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(&bytes[..4], b"this");
}

#[test]
fn journal_compaction_preserves_tail_and_sequence() {
    let scratch = Scratch::new("compact");
    let path = scratch.path("wal");
    let (mut j, _) = Journal::open(&path).unwrap();
    for i in 0..10u8 {
        j.append(&[i]).unwrap();
    }
    // A watermark below the last record would drop records no snapshot
    // covers: refused, and every record stays where it was.
    let err = j.compact_below(7).unwrap_err();
    assert!(matches!(
        err,
        StoreError::Uncovered {
            watermark: 7,
            last: 10
        }
    ));
    assert_eq!(j.next_seq(), 11);
    assert_eq!(j.tail_from(0).unwrap().len(), 10);
    j.append(b"post-refusal").unwrap();
    drop(j);

    let (_, recs) = Journal::open(&path).unwrap();
    assert_eq!(
        recs.iter().map(|r| r.seq).collect::<Vec<_>>(),
        (1..=11).collect::<Vec<u64>>()
    );
    assert_eq!(recs[6].payload, [6u8]);
    assert_eq!(recs[10].payload, b"post-refusal");
}

#[test]
fn journal_compaction_past_its_last_record_continues_after_the_watermark() {
    // A follower's journal compacted to a leader checkpoint's watermark
    // must not hand out the sequence numbers that checkpoint covers.
    let scratch = Scratch::new("compact-ahead");
    let path = scratch.path("wal");
    let (mut j, _) = Journal::open(&path).unwrap();
    j.append(b"one").unwrap();
    j.compact_below(40).unwrap();
    assert_eq!(j.next_seq(), 41);
    assert_eq!(j.append(b"after").unwrap(), 41);
}

#[test]
fn journal_duplicate_and_stale_sequences_are_cut() {
    let scratch = Scratch::new("stale-seq");
    let path = scratch.path("wal");
    {
        let (mut j, _) = Journal::open(&path).unwrap();
        j.append(b"first").unwrap();
        j.append(b"second").unwrap();
        // A record whose sequence rewinds (stale bytes surfacing after a
        // botched rewrite) must stop the scan.
        j.append_with_seq(1, b"stale").unwrap();
        j.append_with_seq(5, b"unreachable").unwrap();
    }
    let (_, recs) = Journal::open(&path).unwrap();
    assert_eq!(recs.len(), 2);
    assert_eq!(recs[1].payload, b"second");
}

#[test]
fn snapshot_round_trips_and_survives_rewrites() {
    let scratch = Scratch::new("snap");
    let path = scratch.path("state.snap");
    assert!(load_snapshot(&path).unwrap().is_none());

    write_snapshot(&path, b"generation-1").unwrap();
    assert_eq!(load_snapshot(&path).unwrap().unwrap(), b"generation-1");

    write_snapshot(&path, b"generation-2-with-more-bytes").unwrap();
    assert_eq!(
        load_snapshot(&path).unwrap().unwrap(),
        b"generation-2-with-more-bytes"
    );
}

#[test]
fn snapshot_detects_corruption() {
    let scratch = Scratch::new("snap-corrupt");
    let path = scratch.path("state.snap");
    write_snapshot(&path, b"precious state bytes").unwrap();

    // Flip one payload byte: CRC must catch it.
    let mut f = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(&path)
        .unwrap();
    f.seek(SeekFrom::End(-1)).unwrap();
    f.write_all(&[0x00]).unwrap();
    drop(f);
    assert!(load_snapshot(&path).is_err());

    // A short / truncated snapshot is corrupt, not a panic.
    std::fs::write(&path, b"PS").unwrap();
    assert!(load_snapshot(&path).is_err());
}

#[test]
fn journal_tail_from_ships_exactly_the_suffix() {
    let scratch = Scratch::new("tail");
    let path = scratch.path("wal");
    let (mut j, _) = Journal::open(&path).unwrap();
    for payload in [b"one".as_ref(), b"two", b"three", b"four"] {
        j.append(payload).unwrap();
    }

    // The full feed, an interior suffix, and the empty tail.
    let all = j.tail_from(0).unwrap();
    assert_eq!(all.iter().map(|r| r.seq).collect::<Vec<_>>(), [1, 2, 3, 4]);
    assert_eq!(all[0].payload, b"one");
    let tail = j.tail_from(2).unwrap();
    assert_eq!(tail.iter().map(|r| r.seq).collect::<Vec<_>>(), [3, 4]);
    assert_eq!(tail[1].payload, b"four");
    assert!(j.tail_from(4).unwrap().is_empty());
    assert!(j.tail_from(99).unwrap().is_empty());

    // Tailing must not disturb the append cursor.
    j.append(b"five").unwrap();
    let tail = j.tail_from(4).unwrap();
    assert_eq!(tail.len(), 1);
    assert_eq!(tail[0].payload, b"five");
}

#[test]
fn records_carry_their_frame_checksum() {
    let scratch = Scratch::new("record-crc");
    let path = scratch.path("wal");
    let (mut j, _) = Journal::open(&path).unwrap();
    for payload in [b"one".as_ref(), b"", b"three"] {
        j.append(payload).unwrap();
    }
    let shipped = j.tail_from(0).unwrap();
    drop(j);
    let (_, opened) = Journal::open(&path).unwrap();
    // `open` and `tail_from` fill in the CRC the frame carried: crc32 of
    // the sequence (u64le) followed by the payload.
    assert_eq!(opened, shipped);
    for rec in &shipped {
        let mut body = rec.seq.to_le_bytes().to_vec();
        body.extend_from_slice(&rec.payload);
        assert_eq!(rec.crc, crc32(&body));
        assert!(rec.is_intact());
    }
    // Any change to the sequence or the payload breaks it.
    let mut altered = shipped[0].clone();
    altered.payload[0] ^= 1;
    assert!(!altered.is_intact());
    let mut altered = shipped[1].clone();
    altered.payload.push(0);
    assert!(!altered.is_intact());
    let mut altered = shipped[2].clone();
    altered.seq += 1;
    assert!(!altered.is_intact());
}

#[test]
fn journal_tail_from_never_ships_scribbled_suffix() {
    let scratch = Scratch::new("tail-scribble");
    let path = scratch.path("wal");
    let (mut j, _) = Journal::open(&path).unwrap();
    j.append(b"good").unwrap();
    j.append(b"also good").unwrap();
    // Garbage past the valid range: replication must never ship it.
    j.scribble_garbage(&[0xFF; 32]).unwrap();
    let tail = j.tail_from(0).unwrap();
    assert_eq!(tail.len(), 2);
    assert_eq!(tail[1].payload, b"also good");
}

#[test]
fn journal_tail_from_after_compaction_starts_late() {
    let scratch = Scratch::new("tail-compact");
    let path = scratch.path("wal");
    let (mut j, _) = Journal::open(&path).unwrap();
    for payload in [b"one".as_ref(), b"two", b"three", b"four"] {
        j.append(payload).unwrap();
    }
    j.compact_below(4).unwrap();
    j.append(b"five").unwrap();
    j.append(b"six").unwrap();
    // A follower at seq 1 asks for 2..: compaction dropped it, so the
    // tail starts later than after_seq + 1 — the caller's signal to fall
    // back to a checkpoint transfer.
    let tail = j.tail_from(1).unwrap();
    assert_eq!(tail.iter().map(|r| r.seq).collect::<Vec<_>>(), [5, 6]);
    assert_ne!(tail[0].seq, 2);
    assert_eq!(tail[0].payload, b"five");
    drop(j);
    let (_, recs) = Journal::open(&path).unwrap();
    assert_eq!(recs.iter().map(|r| r.seq).collect::<Vec<_>>(), [5, 6]);
}

/// Frame boundaries of a journal file: the offset each record starts at,
/// then the end of the last.
fn frame_offsets(bytes: &[u8]) -> Vec<usize> {
    let mut offsets = vec![8];
    let mut pos = 8;
    while pos + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 8 + len;
        offsets.push(pos);
    }
    offsets
}

#[test]
fn journal_missing_a_middle_record_stops_before_the_gap() {
    let scratch = Scratch::new("gap");
    let path = scratch.path("wal");
    let (mut j, _) = Journal::open(&path).unwrap();
    for payload in [b"one".as_ref(), b"two", b"three"] {
        j.append(payload).unwrap();
    }
    drop(j);
    // Cut the middle frame out: record 3 now follows record 1.
    let bytes = std::fs::read(&path).unwrap();
    let at = frame_offsets(&bytes);
    let mut cut = bytes[..at[1]].to_vec();
    cut.extend_from_slice(&bytes[at[2]..]);
    std::fs::write(&path, &cut).unwrap();

    let (mut j, recs) = Journal::open(&path).unwrap();
    assert_eq!(recs.len(), 1, "record 3 must not replay without record 2");
    assert_eq!(recs[0].payload, b"one");
    assert_eq!(j.stats().truncated_records, 1);
    // The gap is cut like a torn tail: appends continue after record 1.
    assert_eq!(j.append(b"two again").unwrap(), 2);
    assert_eq!(j.tail_from(0).unwrap().len(), 2);
}

#[test]
fn journal_compaction_truncates_in_place_and_a_lost_truncation_is_harmless() {
    let scratch = Scratch::new("lost-truncation");
    let path = scratch.path("wal");
    let (mut j, _) = Journal::open(&path).unwrap();
    for payload in [b"one".as_ref(), b"two", b"three"] {
        j.append(payload).unwrap();
    }
    let before = std::fs::read(&path).unwrap();
    j.compact_below(3).unwrap();
    assert_eq!(std::fs::metadata(&path).unwrap().len(), 8, "header only");
    assert_eq!(j.len_bytes(), 8);
    assert_eq!(j.append(b"four").unwrap(), 4);
    drop(j);
    let after = std::fs::read(&path).unwrap();

    // Stale records behind new ones — overlaid where the truncation left
    // them, and appended whole at a frame boundary — stop the scan: their
    // sequences do not follow record 4.
    let mut overlaid = after.clone();
    overlaid.extend_from_slice(&before[after.len()..]);
    let mut aligned = after.clone();
    aligned.extend_from_slice(&before[8..]);
    for bytes in [overlaid, aligned] {
        std::fs::write(&path, &bytes).unwrap();
        let (_, recs) = Journal::open(&path).unwrap();
        assert_eq!(recs.iter().map(|r| r.seq).collect::<Vec<_>>(), [4]);
    }
}
