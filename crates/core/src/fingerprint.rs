//! Structural plan fingerprints: the content address of a planning
//! problem.
//!
//! A planner's output depends only on (policy, pipeline DAG, GPU model,
//! profiles, options) — never on the job's name, its tenant, or the order
//! profiles were submitted in (see [`crate::planner`]: every
//! [`crate::PlanOutput`] is `T'`-independent). Two jobs that agree on
//! those five inputs therefore receive bit-identical plans, and a fleet
//! running thousands of structurally equal jobs can pay the frontier
//! solver once and share the artifact.
//!
//! [`plan_fingerprint`] computes that content address: the inputs are
//! serialized through the deterministic [`Persist`] codec (little-endian
//! fixed-width integers, `f64` bit patterns, profile databases sorted by
//! key — so `HashMap` iteration order and insertion order never leak into
//! the bytes) and hashed with [`content_hash`]. Equal inputs give equal
//! fingerprints by construction; the proptests in this crate pin the
//! converse — any single perturbed profile value, DAG edge, GPU
//! parameter, or option flips the fingerprint.
//!
//! [`content_hash`] keeps FNV-1a's 128-bit state and prime but reads the
//! bytes eight at a time, as little-endian words: one 128-bit multiply
//! per word instead of per byte. Every plan-cache lookup hashes its whole
//! key (~11.5 KB for a fleet job, profiles included), so this is most of
//! what a cache hit costs. Each round (xor a word, multiply by an odd
//! prime) is a bijection of the state for a fixed word, so two
//! equal-length inputs that differ in one word always hash apart. The
//! trailing bytes go in one at a time and the length is folded in last,
//! so a short tail cannot alias a zero-padded word.

use std::fmt;

use perseus_gpu::GpuSpec;
use perseus_pipeline::{OpKey, PipelineDag};
use perseus_profiler::ProfileDb;
use perseus_store::{ByteReader, ByteWriter, Persist, StoreError};

use crate::frontier::FrontierOptions;

/// FNV-1a 128-bit offset basis.
pub(crate) const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
/// FNV-1a 128-bit prime.
pub(crate) const FNV128_PRIME: u128 = 0x0000000001000000000000000000013B;

/// The 128-bit structural fingerprint of one planning problem. Equal
/// fingerprints key the same cache line in a [`crate::PlanCache`]; 128
/// bits keep accidental collisions out of reach for any realistic fleet
/// (the birthday bound at 10⁹ distinct structures is ~10⁻²¹).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlanFingerprint(pub u128);

impl fmt::Display for PlanFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl Persist for PlanFingerprint {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64((self.0 >> 64) as u64);
        w.put_u64(self.0 as u64);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        let hi = r.get_u64()?;
        let lo = r.get_u64()?;
        Ok(PlanFingerprint(((hi as u128) << 64) | lo as u128))
    }
}

/// The content hash behind [`PlanFingerprint`], also used to name
/// content-addressed files: FNV-1a's 128-bit state and prime over the
/// bytes read as 8-byte little-endian words, then the trailing bytes one
/// at a time, then the length (see the module docs).
pub fn content_hash(bytes: &[u8]) -> u128 {
    let round = |h: u128, x: u64| (h ^ u128::from(x)).wrapping_mul(FNV128_PRIME);
    let mut words = bytes.chunks_exact(8);
    let mut h = FNV128_OFFSET;
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
        h = round(h, word);
    }
    for &b in words.remainder() {
        h = round(h, u64::from(b));
    }
    round(h, bytes.len() as u64)
}

/// Computes the structural fingerprint of one planning problem.
///
/// `policy` is the planner's stable name ([`crate::Planner::name`];
/// `"perseus"` for the frontier solver) and is part of the hash input so
/// different policies planning the same pipeline never share a cache
/// entry — their outputs differ even when their inputs coincide. A
/// Kareus job keys its frontier as `"perseus"` too: the frontier is the
/// same, and its sleep plans are derived downstream of the cache, so the
/// power-state model is not an input of what the key names.
///
/// Invariances, by construction of the canonical encoding:
///
/// * **Job identity** — neither the job name nor any tenant is encoded.
/// * **Submission order** — [`ProfileDb`]'s encoding sorts entries by
///   key, so databases built in any insertion order hash equally.
/// * **Process** — no addresses, timestamps, or map iteration order.
pub fn plan_fingerprint(
    policy: &str,
    pipe: &PipelineDag,
    gpu: &GpuSpec,
    profiles: &ProfileDb<OpKey>,
    opts: &FrontierOptions,
) -> PlanFingerprint {
    PlanFingerprint(content_hash(&plan_key_bytes(
        policy, pipe, gpu, profiles, opts,
    )))
}

/// The canonical bytes [`plan_fingerprint`] hashes.
pub(crate) fn plan_key_bytes(
    policy: &str,
    pipe: &PipelineDag,
    gpu: &GpuSpec,
    profiles: &ProfileDb<OpKey>,
    opts: &FrontierOptions,
) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_str(policy);
    pipe.encode(&mut w);
    gpu.encode(&mut w);
    profiles.encode(&mut w);
    opts.encode(&mut w);
    w.into_bytes()
}
