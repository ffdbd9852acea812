//! 64-bit FNV-1a, the one hash behind every persisted fingerprint: sweep
//! config fingerprints (which name checkpoint logs and travel inside
//! partial reports), the serve `assignment_fingerprint` and the golden
//! tests. Unlike `DefaultHasher`, whose output is unspecified, it is stable
//! across runs, platforms and compiler versions.

/// Offset basis (the hash of no bytes) and prime of 64-bit FNV-1a.
const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// An FNV-1a 64-bit hasher fed byte slices in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(OFFSET)
    }
}

impl Fnv1a {
    /// A hasher that has consumed no bytes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds `bytes`.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
        self
    }

    /// Feeds `value` as 8 little-endian bytes.
    pub fn write_u64(&mut self, value: u64) -> &mut Self {
        self.write(&value.to_le_bytes())
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }

    /// The hash so far as 16 lowercase hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// FNV-1a of `bytes` as 16 lowercase hex digits.
pub fn fnv1a_hex(bytes: &[u8]) -> String {
    Fnv1a::new().write(bytes).hex()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        assert_eq!(fnv1a_hex(b""), "cbf29ce484222325");
        assert_eq!(fnv1a_hex(b"a"), "af63dc4c8601ec8c");
        assert_eq!(fnv1a_hex(b"foobar"), "85944171f73967e8");
    }

    #[test]
    fn incremental_writes_equal_one_write() {
        let mut split = Fnv1a::new();
        split.write(b"foo").write(b"bar");
        assert_eq!(split.hex(), fnv1a_hex(b"foobar"));
        let mut word = Fnv1a::new();
        word.write_u64(0x0102_0304_0506_0708);
        assert_eq!(
            word.finish(),
            Fnv1a::new().write(&[8, 7, 6, 5, 4, 3, 2, 1]).finish()
        );
    }
}
