//! CRC-32 (IEEE 802.3 polynomial), the journal's record checksum.
//!
//! Slice-by-16: sixteen 256-entry tables, built at compile time, fold
//! sixteen input bytes per step; the tail shorter than one step takes the
//! classic byte-at-a-time walk over the first table. CRC-32 detects every
//! single-bit error and all burst errors shorter than 32 bits — more than
//! enough to tell a torn or scribbled journal tail from a valid record,
//! which is the only job it has here (integrity, not authentication).

/// Reflected polynomial of CRC-32/IEEE (zlib, PNG, Ethernet).
const POLY: u32 = 0xEDB8_8320;

/// Bytes folded per table step.
const STRIDE: usize = 16;

/// `TABLES[0]` is the byte-at-a-time table; `TABLES[k][i]` is the CRC
/// contribution of byte `i` followed by `k` zero bytes.
static TABLES: [[u32; 256]; STRIDE] = build_tables();

const fn build_tables() -> [[u32; 256]; STRIDE] {
    let mut t = [[0u32; 256]; STRIDE];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { (c >> 1) ^ POLY } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < STRIDE {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32/IEEE of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = !0u32;
    let mut blocks = data.chunks_exact(STRIDE);
    for b in &mut blocks {
        let head = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        c = t[15][(head & 0xFF) as usize]
            ^ t[14][((head >> 8) & 0xFF) as usize]
            ^ t[13][((head >> 16) & 0xFF) as usize]
            ^ t[12][(head >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in blocks.remainder() {
        c = (c >> 8) ^ t[0][((c ^ u32::from(b)) & 0xFF) as usize];
    }
    !c
}
