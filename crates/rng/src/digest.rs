//! 64-bit FNV-1a: the one digest the workspace pins reports, traces and
//! kernel outputs by.
//!
//! FNV-1a (Fowler–Noll–Vo) is stable, cheap and order-sensitive, which
//! is all a golden digest needs; it is not cryptographic. Every multi-byte value is hashed as
//! its little-endian bytes, so digests are identical on every host.

/// An order-sensitive 64-bit FNV-1a digest under construction.
///
/// ```
/// use incam_rng::Digest;
///
/// let mut d = Digest::new();
/// d.write(b"foobar");
/// assert_eq!(d.finish(), 0x8594_4171_f739_67e8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    /// The FNV-1a 64-bit offset basis: the digest of no bytes.
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    /// The FNV 64-bit prime.
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// An empty digest.
    pub fn new() -> Self {
        Self(Self::OFFSET_BASIS)
    }

    /// Folds in raw bytes, in order.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
    }

    /// Folds in a `u64` as its little-endian bytes.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Folds in an `f64` by its exact bit pattern, little-endian.
    #[inline]
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Folds in an `f32` by its exact bit pattern, little-endian.
    #[inline]
    pub fn write_f32(&mut self, v: f32) {
        self.write(&v.to_bits().to_le_bytes());
    }

    /// The digest of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(bytes: &[u8]) -> u64 {
        let mut d = Digest::new();
        d.write(bytes);
        d.finish()
    }

    #[test]
    fn fnv1a_64_reference_vectors() {
        assert_eq!(of(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(of(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(of(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(Digest::default(), Digest::new());
    }

    #[test]
    fn writes_are_byte_streams() {
        // split writes concatenate
        let mut split = Digest::new();
        split.write(b"foo");
        split.write(b"bar");
        assert_eq!(split.finish(), of(b"foobar"));
    }

    #[test]
    fn numbers_hash_their_little_endian_bytes() {
        let v = 0x0102_0304_0506_0708u64;
        let mut d = Digest::new();
        d.write_u64(v);
        assert_eq!(d.finish(), of(&[8, 7, 6, 5, 4, 3, 2, 1]));

        let x = -1.5f64; // bits 0xbff8_0000_0000_0000
        let mut d = Digest::new();
        d.write_f64(x);
        assert_eq!(d.finish(), of(&[0, 0, 0, 0, 0, 0, 0xf8, 0xbf]));

        let y = -1.5f32; // bits 0xbfc0_0000
        let mut d = Digest::new();
        d.write_f32(y);
        assert_eq!(d.finish(), of(&[0, 0, 0xc0, 0xbf]));
    }
}
