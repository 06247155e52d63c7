//! [`Persist`] implementations for profiles.
//!
//! Only the raw measurement entries are serialized; the Pareto subset is
//! rebuilt through [`OpProfile::from_entries`], which is deterministic, so
//! a decoded profile is bit-identical to the original (same entries, same
//! Pareto extraction). [`ProfileDb`] iterates a `HashMap`, whose order is
//! nondeterministic — entries are sorted by key before encoding so equal
//! databases always encode to equal bytes (the recovery differential
//! tests compare snapshots byte-for-byte).

use std::hash::Hash;

use perseus_store::{ByteReader, ByteWriter, Persist, StoreError};

use crate::profile::{OpProfile, ProfileDb, ProfileEntry};

impl Persist for ProfileEntry {
    fn encode(&self, w: &mut ByteWriter) {
        self.freq.encode(w);
        w.put_f64(self.time_s);
        w.put_f64(self.energy_j);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        Ok(ProfileEntry {
            freq: Persist::decode(r)?,
            time_s: r.get_f64()?,
            energy_j: r.get_f64()?,
        })
    }
}

impl Persist for OpProfile {
    /// The entries as a `Vec<ProfileEntry>` encodes them, written from
    /// the slice.
    fn encode(&self, w: &mut ByteWriter) {
        let entries = self.entries();
        w.put_usize(entries.len());
        for e in entries {
            e.encode(w);
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        let entries = Vec::<ProfileEntry>::decode(r)?;
        if entries.is_empty() {
            return Err(StoreError::corrupt("profile has no measurements"));
        }
        Ok(OpProfile::from_entries(entries))
    }
}

impl<K: Persist + Ord + Eq + Hash + Clone> Persist for ProfileDb<K> {
    fn encode(&self, w: &mut ByteWriter) {
        let mut pairs: Vec<(&K, &OpProfile)> = self.iter().collect();
        pairs.sort_by(|a, b| a.0.cmp(b.0));
        w.put_usize(pairs.len());
        for (k, p) in pairs {
            k.encode(w);
            p.encode(w);
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        let n = r.get_len(1)?;
        let mut db = ProfileDb::new();
        for _ in 0..n {
            let k = K::decode(r)?;
            let p = OpProfile::decode(r)?;
            db.insert(k, p);
        }
        Ok(db)
    }
}
