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
//! the bytes) and hashed with FNV-1a over a 128-bit state. Equal inputs
//! give equal fingerprints by construction; the proptests in this crate
//! pin the converse — any single perturbed profile value, DAG edge, GPU
//! parameter, or option flips the fingerprint.

use std::fmt;

use perseus_gpu::{GpuSpec, PowerStateModel};
use perseus_pipeline::{OpKey, PipelineDag};
use perseus_profiler::ProfileDb;
use perseus_store::{ByteReader, ByteWriter, Persist, StoreError};

use crate::frontier::FrontierOptions;

/// FNV-1a 128-bit offset basis.
const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
/// FNV-1a 128-bit prime.
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013B;

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

/// FNV-1a over a 128-bit state: the content hash behind
/// [`PlanFingerprint`], also used to name content-addressed files.
pub fn fnv1a_128(bytes: &[u8]) -> u128 {
    let mut h = FNV128_OFFSET;
    for &b in bytes {
        h ^= b as u128;
        h = h.wrapping_mul(FNV128_PRIME);
    }
    h
}

/// Computes the structural fingerprint of one planning problem.
///
/// `policy` is the planner's stable name ([`crate::Planner::name`];
/// `"perseus"` for the frontier solver) and is part of the hash input so
/// different policies planning the same pipeline never share a cache
/// entry — their outputs differ even when their inputs coincide.
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
    plan_fingerprint_with_power(policy, pipe, gpu, profiles, opts, None)
}

/// [`plan_fingerprint`] extended with an optional power-state model — the
/// sixth planning input a joint dynamic+static policy (Kareus) depends on.
///
/// `None` encodes exactly like [`plan_fingerprint`] (no trailing marker),
/// so every existing frequency-only fingerprint is unchanged; `Some`
/// appends a marker byte plus the model's canonical bytes, so two Kareus
/// jobs differing only in sleep-state latencies never share a plan.
pub fn plan_fingerprint_with_power(
    policy: &str,
    pipe: &PipelineDag,
    gpu: &GpuSpec,
    profiles: &ProfileDb<OpKey>,
    opts: &FrontierOptions,
    power: Option<&PowerStateModel>,
) -> PlanFingerprint {
    let mut w = ByteWriter::new();
    w.put_str(policy);
    pipe.encode(&mut w);
    gpu.encode(&mut w);
    profiles.encode(&mut w);
    opts.encode(&mut w);
    if let Some(model) = power {
        w.put_u8(1);
        model.encode(&mut w);
    }
    PlanFingerprint(fnv1a_128(&w.into_bytes()))
}
