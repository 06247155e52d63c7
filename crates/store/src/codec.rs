//! The binary codec behind every journal record and snapshot: fixed-width
//! little-endian integers, bit-pattern `f64`s, and length-prefixed
//! sequences.
//!
//! The codec optimizes for *determinism*, not compactness: the same value
//! always encodes to the same bytes (no varints whose length depends on
//! magnitude-after-arithmetic, no float formatting), so serialized state
//! can be compared byte-for-byte across runs — the foundation of the
//! crash-recovery differential tests.

use std::fmt;

/// Errors from decoding or from the journal/snapshot files.
#[derive(Debug)]
pub enum StoreError {
    /// The byte stream ended before the value was complete.
    UnexpectedEof {
        /// What was being decoded.
        context: &'static str,
    },
    /// The bytes decoded to a structurally invalid value (bad tag,
    /// violated invariant, implausible length).
    Corrupt {
        /// What was wrong.
        reason: String,
    },
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// A journal compaction was asked to drop records its snapshot does
    /// not cover: the watermark is below the journal's last record.
    Uncovered {
        /// The snapshot's watermark.
        watermark: u64,
        /// Sequence of the journal's last record.
        last: u64,
    },
    /// An intact file of an earlier format that this build does not read.
    /// Unlike a [`StoreError::Corrupt`] file, which recovery may do
    /// without, it stops an open: recovering without it would overwrite
    /// the file and delete what it refers to.
    Unsupported {
        /// Which file, and of what format.
        reason: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::UnexpectedEof { context } => {
                write!(f, "unexpected end of input while decoding {context}")
            }
            StoreError::Corrupt { reason } => write!(f, "corrupt record: {reason}"),
            StoreError::Io(e) => write!(f, "store I/O failed: {e}"),
            StoreError::Uncovered { watermark, last } => write!(
                f,
                "compaction at watermark {watermark} would drop journal records up to {last}"
            ),
            StoreError::Unsupported { reason } => write!(f, "unsupported store format: {reason}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

impl StoreError {
    /// A [`StoreError::Corrupt`] with the given reason.
    pub fn corrupt(reason: impl Into<String>) -> StoreError {
        StoreError::Corrupt {
            reason: reason.into(),
        }
    }
}

/// Growable byte sink the [`Persist`] encoders write into.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The encoded bytes, borrowed.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64` (platform-independent width).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f64` as its exact IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a bool as one byte (0/1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_usize(v.len());
        self.buf.extend_from_slice(v.as_bytes());
    }
}

/// Cursor over an encoded byte slice the [`Persist`] decoders read from.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf` starting at offset 0.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the whole input was consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(StoreError::UnexpectedEof { context });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, StoreError> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, StoreError> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads a `usize` encoded as `u64`, rejecting values that overflow
    /// the platform's `usize`.
    pub fn get_usize(&mut self) -> Result<usize, StoreError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| StoreError::corrupt(format!("usize out of range: {v}")))
    }

    /// Reads a length encoded as `u64` and sanity-checks it against the
    /// bytes actually remaining, so a corrupt length can never trigger a
    /// huge allocation.
    pub fn get_len(&mut self, elem_min_bytes: usize) -> Result<usize, StoreError> {
        let n = self.get_usize()?;
        if n.saturating_mul(elem_min_bytes.max(1)) > self.remaining() {
            return Err(StoreError::corrupt(format!(
                "sequence length {n} exceeds remaining input ({} bytes)",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Reads an `f64` from its exact IEEE-754 bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, StoreError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a bool (strictly 0 or 1).
    pub fn get_bool(&mut self) -> Result<bool, StoreError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(StoreError::corrupt(format!("invalid bool byte {b}"))),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, StoreError> {
        let n = self.get_len(1)?;
        let b = self.take(n, "str bytes")?;
        String::from_utf8(b.to_vec()).map_err(|_| StoreError::corrupt("string is not valid UTF-8"))
    }
}

/// Bit-exact binary serialization. Implemented by every type that rides
/// in the journal or a snapshot.
///
/// Contract: `decode(encode(x)) == x` *bit-for-bit* — in particular `f64`
/// fields round-trip through [`f64::to_bits`], so NaNs, signed zeros, and
/// subnormals all survive. `decode` must never panic on malformed input;
/// it returns [`StoreError::Corrupt`] instead (the journal treats any
/// decode failure in the tail as a torn write and truncates).
pub trait Persist: Sized {
    /// Appends this value's encoding to `w`.
    fn encode(&self, w: &mut ByteWriter);

    /// Decodes one value from `r`, advancing the cursor.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnexpectedEof`] if the input ends early;
    /// [`StoreError::Corrupt`] for invalid tags or violated invariants.
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError>;

    /// Convenience: encodes into a fresh byte vector.
    fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        self.encode(&mut w);
        w.into_bytes()
    }

    /// Convenience: decodes a value that must consume the whole slice.
    ///
    /// # Errors
    ///
    /// Decode errors, or [`StoreError::Corrupt`] on trailing garbage.
    fn from_bytes(bytes: &[u8]) -> Result<Self, StoreError> {
        let mut r = ByteReader::new(bytes);
        let v = Self::decode(&mut r)?;
        if !r.is_exhausted() {
            return Err(StoreError::corrupt(format!(
                "{} trailing bytes after value",
                r.remaining()
            )));
        }
        Ok(v)
    }
}

impl Persist for u8 {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u8(*self);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        r.get_u8()
    }
}

impl Persist for u32 {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u32(*self);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        r.get_u32()
    }
}

impl Persist for u64 {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(*self);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        r.get_u64()
    }
}

impl Persist for usize {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_usize(*self);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        r.get_usize()
    }
}

impl Persist for f64 {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_f64(*self);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        r.get_f64()
    }
}

impl Persist for bool {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_bool(*self);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        r.get_bool()
    }
}

impl Persist for String {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_str(self);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        r.get_str()
    }
}

impl<T: Persist> Persist for Option<T> {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            b => Err(StoreError::corrupt(format!("invalid Option tag {b}"))),
        }
    }
}

impl<T: Persist> Persist for Vec<T> {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_usize(self.len());
        for v in self {
            v.encode(w);
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        // Every encodable value is at least one byte, which bounds the
        // allocation a corrupt length can cause.
        let n = r.get_len(1)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<A: Persist, B: Persist> Persist for (A, B) {
    fn encode(&self, w: &mut ByteWriter) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Persist, B: Persist, C: Persist> Persist for (A, B, C) {
    fn encode(&self, w: &mut ByteWriter) {
        self.0.encode(w);
        self.1.encode(w);
        self.2.encode(w);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}
