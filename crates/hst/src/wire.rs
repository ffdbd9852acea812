//! Compact wire format for publishing the HST.
//!
//! Step 1 of the paper's workflow has the server *publish* the HST and the
//! predefined point set to every worker and task; the paper motivates both
//! the fixed predefined set and the complete-tree completion by
//! **communication cost** (Sec. III-B: fake nodes "simplify the information
//! about the HST that needs to be communicated ... so as to further save the
//! communication overhead").
//!
//! This module makes that saving concrete. Because the complete tree is
//! fully determined by `(c, D, scale)` plus the leaf code of each predefined
//! point, the publication is just:
//!
//! ```text
//! magic(4) version(1) c(4) D(4) scale(8) n(4)
//! n × { x(8) y(8) leaf_code(8) }
//! crc32(4)
//! ```
//!
//! — `24·N + 29` bytes total ([`encoded_size`]), independent of `c^D`. Clients rebuild every
//! query structure (LCA levels, distances, mechanism tables) from this
//! header alone; no node list is ever exchanged.

use crate::code::{CodeContext, LeafCode};
use crate::tree::Hst;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use pombm_geom::{Point, PointSet};

/// Magic bytes identifying the format.
const MAGIC: &[u8; 4] = b"HST1";
/// Current format version.
const VERSION: u8 = 1;

/// Errors while decoding a published tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer is shorter than the fixed header or the declared payload.
    Truncated,
    /// Magic bytes or version mismatch.
    BadHeader,
    /// The checksum does not match the payload.
    BadChecksum,
    /// A field value is structurally invalid (e.g. duplicate leaf codes,
    /// codes out of range, non-finite coordinates).
    Invalid(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "buffer truncated"),
            DecodeError::BadHeader => write!(f, "bad magic or unsupported version"),
            DecodeError::BadChecksum => write!(f, "checksum mismatch"),
            DecodeError::Invalid(what) => write!(f, "invalid field: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// The client-side view of a published tree: everything a worker or task
/// needs to snap its location, obfuscate it and interpret assignments —
/// without the server-side construction state.
#[derive(Debug, Clone, PartialEq)]
pub struct PublishedHst {
    /// Code-arithmetic context `(c, D)`.
    pub ctx: CodeContext,
    /// Metric scale divisor of the construction.
    pub scale: f64,
    /// The predefined points, id order matching `leaf_codes`.
    pub points: PointSet,
    /// Leaf code of each predefined point.
    pub leaf_codes: Vec<LeafCode>,
}

impl PublishedHst {
    /// Leaf code of the predefined point nearest to `location` (`O(N)`; grid
    /// deployments use grid arithmetic instead).
    pub fn snap(&self, location: &Point) -> LeafCode {
        self.leaf_codes[self.points.nearest(location)]
    }

    /// Tree distance between two leaves in original units.
    pub fn tree_dist(&self, a: LeafCode, b: LeafCode) -> f64 {
        self.ctx.tree_dist_units(a, b) as f64 * self.scale
    }
}

/// Encodes a server-side [`Hst`] for publication.
pub fn encode(hst: &Hst) -> Bytes {
    let n = hst.num_points();
    let mut buf = BytesMut::with_capacity(25 + 24 * n);
    buf.put_slice(MAGIC);
    buf.put_u8(VERSION);
    buf.put_u32(hst.branching());
    buf.put_u32(hst.depth());
    buf.put_f64(hst.scale());
    buf.put_u32(n as u32);
    for p in 0..n {
        let pt = hst.points().point(p);
        buf.put_f64(pt.x);
        buf.put_f64(pt.y);
        buf.put_u64(hst.leaf_of(p).value());
    }
    let crc = crc32(&buf);
    buf.put_u32(crc);
    buf.freeze()
}

/// Decodes a published tree, verifying structure and checksum.
pub fn decode(mut data: Bytes) -> Result<PublishedHst, DecodeError> {
    // Header: 4 + 1 + 4 + 4 + 8 + 4 = 25 bytes, plus trailing crc32.
    if data.len() < 25 + 4 {
        return Err(DecodeError::Truncated);
    }
    let crc_expected = {
        let payload = &data[..data.len() - 4];
        crc32(payload)
    };
    let crc_stored = u32::from_be_bytes(data[data.len() - 4..].try_into().expect("4 bytes"));
    if crc_expected != crc_stored {
        return Err(DecodeError::BadChecksum);
    }
    data.truncate(data.len() - 4);

    let mut magic = [0u8; 4];
    data.copy_to_slice(&mut magic);
    if &magic != MAGIC || data.get_u8() != VERSION {
        return Err(DecodeError::BadHeader);
    }
    let branching = data.get_u32();
    let depth = data.get_u32();
    let scale = data.get_f64();
    let n = data.get_u32() as usize;
    if branching < 2 || depth == 0 {
        return Err(DecodeError::Invalid("tree shape"));
    }
    if !(scale.is_finite() && scale > 0.0) {
        return Err(DecodeError::Invalid("scale"));
    }
    if data.remaining() != n * 24 {
        return Err(DecodeError::Truncated);
    }
    if n == 0 {
        return Err(DecodeError::Invalid("empty point set"));
    }
    let ctx =
        CodeContext::try_new(branching, depth).map_err(|_| DecodeError::Invalid("c^D overflow"))?;

    let mut points = Vec::with_capacity(n);
    let mut leaf_codes = Vec::with_capacity(n);
    #[expect(
        clippy::disallowed_types,
        reason = "duplicate-code check only; never iterated"
    )]
    let mut seen = std::collections::HashSet::with_capacity(n);
    for _ in 0..n {
        let x = data.get_f64();
        let y = data.get_f64();
        let code = LeafCode(data.get_u64());
        if !(x.is_finite() && y.is_finite()) {
            return Err(DecodeError::Invalid("non-finite coordinate"));
        }
        if !ctx.contains(code) {
            return Err(DecodeError::Invalid("leaf code out of range"));
        }
        if !seen.insert(code) {
            return Err(DecodeError::Invalid("duplicate leaf code"));
        }
        points.push(Point::new(x, y));
        leaf_codes.push(code);
    }
    Ok(PublishedHst {
        ctx,
        scale,
        points: PointSet::new(points),
        leaf_codes,
    })
}

/// Published size in bytes for a tree over `n` points: the fixed header plus
/// one record per point plus the checksum.
pub fn encoded_size(n: usize) -> usize {
    25 + 24 * n + 4
}

/// CRC-32 (IEEE 802.3, reflected) over a byte slice. Small and dependency-
/// free; publication integrity, not cryptographic authenticity.
fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use pombm_geom::{seeded_rng, Grid, Rect};

    fn sample_hst() -> Hst {
        let grid = Grid::square(Rect::square(100.0), 5);
        let mut rng = seeded_rng(77, 0);
        Hst::build(&grid.to_point_set(), &mut rng)
    }

    #[test]
    fn roundtrip_preserves_everything_queryable() {
        let hst = sample_hst();
        let bytes = encode(&hst);
        assert_eq!(bytes.len(), encoded_size(hst.num_points()));
        let published = decode(bytes).unwrap();
        assert_eq!(published.ctx, hst.ctx());
        assert_eq!(published.scale, hst.scale());
        assert_eq!(published.points.len(), hst.num_points());
        for p in 0..hst.num_points() {
            assert_eq!(published.leaf_codes[p], hst.leaf_of(p));
            assert_eq!(published.points.point(p), hst.points().point(p));
        }
        // Distances agree on all pairs.
        for a in 0..hst.num_points() {
            for b in 0..hst.num_points() {
                assert_eq!(
                    published.tree_dist(hst.leaf_of(a), hst.leaf_of(b)),
                    hst.tree_dist(hst.leaf_of(a), hst.leaf_of(b)),
                );
            }
        }
    }

    #[test]
    fn published_snap_matches_server_snap() {
        let hst = sample_hst();
        let published = decode(encode(&hst)).unwrap();
        for probe in [
            Point::new(0.0, 0.0),
            Point::new(55.5, 42.0),
            Point::new(99.9, 99.9),
        ] {
            assert_eq!(published.snap(&probe), hst.snap(&probe));
        }
    }

    #[test]
    fn size_is_independent_of_completion_width() {
        // The whole point of the format: 24 bytes per point, no c^D term.
        let hst = sample_hst();
        let leaves = hst.num_leaves();
        assert!(leaves > hst.num_points() as u64, "completion adds leaves");
        assert_eq!(encode(&hst).len(), 29 + 24 * hst.num_points());
    }

    #[test]
    fn truncated_buffer_is_rejected() {
        let bytes = encode(&sample_hst());
        for cut in [0usize, 10, 28, bytes.len() - 5] {
            let sliced = bytes.slice(..cut);
            assert!(
                matches!(
                    decode(sliced),
                    Err(DecodeError::Truncated) | Err(DecodeError::BadChecksum)
                ),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn bit_flips_are_detected() {
        let bytes = encode(&sample_hst());
        for pos in [0usize, 5, 20, 40, bytes.len() - 6] {
            let mut corrupted = bytes.to_vec();
            corrupted[pos] ^= 0x40;
            let err = decode(Bytes::from(corrupted)).unwrap_err();
            assert!(
                matches!(err, DecodeError::BadChecksum),
                "flip at {pos}: got {err}"
            );
        }
    }

    #[test]
    fn bad_magic_is_rejected_after_checksum_fixup() {
        // Build a buffer with wrong magic but valid checksum: decode must
        // fail on the header, not the checksum.
        let bytes = encode(&sample_hst());
        let mut raw = bytes.to_vec();
        raw[0] = b'X';
        let len = raw.len();
        let crc = crc32(&raw[..len - 4]);
        raw[len - 4..].copy_from_slice(&crc.to_be_bytes());
        assert_eq!(decode(Bytes::from(raw)), Err(DecodeError::BadHeader));
    }

    #[test]
    fn duplicate_leaf_codes_rejected() {
        let hst = sample_hst();
        let mut raw = encode(&hst).to_vec();
        // Overwrite the second record's code with the first record's code.
        // Records start at offset 25; code sits at +16 within the record.
        let first_code = &raw[25 + 16..25 + 24].to_vec();
        raw[25 + 24 + 16..25 + 24 + 24].copy_from_slice(first_code);
        let len = raw.len();
        let crc = crc32(&raw[..len - 4]);
        raw[len - 4..].copy_from_slice(&crc.to_be_bytes());
        assert_eq!(
            decode(Bytes::from(raw)),
            Err(DecodeError::Invalid("duplicate leaf code"))
        );
    }

    #[test]
    fn crc32_matches_known_vector() {
        // Standard test vector: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn decode_error_displays() {
        assert_eq!(DecodeError::Truncated.to_string(), "buffer truncated");
        assert!(DecodeError::Invalid("scale").to_string().contains("scale"));
    }
}
