//! Zero-dependency durability substrate for the Perseus planning server.
//!
//! Long-horizon energy schedulers amortize the cost of characterizing a
//! job's Pareto frontier over days or weeks of training; losing that
//! state to a server crash forces a full re-characterization, which is
//! exactly the waste the scheduler exists to avoid. This crate provides
//! the two on-disk primitives the server needs to survive restarts:
//!
//! * a **write-ahead [`Journal`]** — an append-only file of
//!   length-prefixed, CRC-checksummed records, one per state-mutating
//!   event. Opening a journal scans it and *truncates* at the first torn
//!   or corrupted record, so a crash mid-append (or a scribbled tail)
//!   loses at most the unreadable suffix, never the whole file;
//! * **snapshot files** ([`write_snapshot`], [`load_snapshot`]) — a
//!   single checksummed record holding a compacted serialization of the
//!   full state, written atomically (temp file + rename) so a crash
//!   mid-snapshot leaves the previous snapshot intact.
//!
//! Serialization goes through the [`Persist`] trait and the
//! [`ByteWriter`]/[`ByteReader`] codec: fixed-width little-endian
//! integers and `f64::to_bits`, so round trips are **bit-exact** — the
//! property the server's recovery contract (deployments bit-identical to
//! an uninterrupted run) is built on. The crate deliberately has no
//! dependencies and no knowledge of Perseus domain types; domain crates
//! implement [`Persist`] for their own types.

mod checksum;
mod codec;
mod journal;
mod snapshot;

pub use checksum::crc32;
pub use codec::{ByteReader, ByteWriter, Persist, StoreError};
pub use journal::{Journal, JournalStats, Record};
pub use snapshot::{load_snapshot, write_snapshot};

#[cfg(test)]
mod tests;
