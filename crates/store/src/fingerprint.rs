//! Stable 128-bit content fingerprints for cache keys.
//!
//! The hash is FNV-1a over a length-prefixed component stream: every
//! component is fed as `(len as u64 little-endian) ++ bytes`, so
//! `["ab", "c"]` and `["a", "bc"]` hash differently. FNV-1a is not
//! cryptographic — the store is a local cache keyed by our own
//! deterministic descriptors, not an integrity boundary — but 128 bits
//! make accidental collisions across realistic sweep grids negligible.

use std::fmt;

const FNV_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// A finished 128-bit fingerprint, rendered as 32 lowercase hex digits.
///
/// # Examples
///
/// ```
/// use wrsn_store::FingerprintBuilder;
///
/// let mut fp = FingerprintBuilder::new("wrsn-seedrun-v1");
/// fp.push_str("idb");
/// fp.push_u64(7);
/// let a = fp.finish();
/// assert_eq!(a.to_hex().len(), 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fingerprint(u128);

impl Fingerprint {
    /// The fingerprint as 32 lowercase hex digits.
    #[must_use]
    pub fn to_hex(&self) -> String {
        self.hex_in(&mut [0; 32]).to_string()
    }

    /// The 32 lowercase hex digits written into `buf`, most significant
    /// first: [`Fingerprint::to_hex`] without the allocation, for a
    /// lookup that only borrows the key.
    pub(crate) fn hex_in<'a>(&self, buf: &'a mut [u8; 32]) -> &'a str {
        const DIGITS: &[u8; 16] = b"0123456789abcdef";
        for (i, digit) in buf.iter_mut().enumerate() {
            *digit = DIGITS[(self.0 >> (124 - 4 * i) & 0xf) as usize];
        }
        std::str::from_utf8(buf).expect("hex digits are ASCII")
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.hex_in(&mut [0; 32]))
    }
}

/// Accumulates cache-key components into a [`Fingerprint`].
///
/// The constructor takes a domain tag so fingerprints from different
/// subsystems (seed runs, simulation reports, …) can never alias even
/// when their remaining components coincide.
#[derive(Debug, Clone)]
pub struct FingerprintBuilder {
    state: u128,
}

impl FingerprintBuilder {
    /// A builder seeded with `domain` as its first component.
    #[must_use]
    pub fn new(domain: &str) -> Self {
        let mut b = FingerprintBuilder { state: FNV_OFFSET };
        b.push_str(domain);
        b
    }

    fn absorb(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.state ^= u128::from(byte);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds one string component (length-prefixed).
    pub fn push_str(&mut self, s: &str) {
        self.absorb(&(s.len() as u64).to_le_bytes());
        self.absorb(s.as_bytes());
    }

    /// Feeds one integer component.
    pub fn push_u64(&mut self, v: u64) {
        self.absorb(&8u64.to_le_bytes());
        self.absorb(&v.to_le_bytes());
    }

    /// Feeds one boolean component.
    pub fn push_bool(&mut self, v: bool) {
        self.push_u64(u64::from(v));
    }

    /// The finished fingerprint.
    #[must_use]
    pub fn finish(&self) -> Fingerprint {
        Fingerprint(self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(parts: &[&str]) -> Fingerprint {
        let mut b = FingerprintBuilder::new("test");
        for p in parts {
            b.push_str(p);
        }
        b.finish()
    }

    #[test]
    fn deterministic_across_builders() {
        assert_eq!(fp(&["idb", "seed-3"]), fp(&["idb", "seed-3"]));
    }

    #[test]
    fn every_component_matters() {
        let base = fp(&["idb", "v0.1.0"]);
        assert_ne!(base, fp(&["rfh", "v0.1.0"]), "solver name must invalidate");
        assert_ne!(base, fp(&["idb", "v0.2.0"]), "version must invalidate");
    }

    #[test]
    fn length_prefix_prevents_concatenation_aliasing() {
        assert_ne!(fp(&["ab", "c"]), fp(&["a", "bc"]));
        assert_ne!(fp(&["abc"]), fp(&["ab", "c"]));
        assert_ne!(fp(&[""]), fp(&[]));
    }

    #[test]
    fn domains_are_separated() {
        let a = FingerprintBuilder::new("domain-a").finish();
        let b = FingerprintBuilder::new("domain-b").finish();
        assert_ne!(a, b);
    }

    #[test]
    fn integers_and_bools_feed_in() {
        let mut a = FingerprintBuilder::new("t");
        a.push_u64(1);
        let mut b = FingerprintBuilder::new("t");
        b.push_u64(2);
        assert_ne!(a.finish(), b.finish());
        let mut c = FingerprintBuilder::new("t");
        c.push_bool(true);
        let mut d = FingerprintBuilder::new("t");
        d.push_bool(false);
        assert_ne!(c.finish(), d.finish());
    }

    #[test]
    fn hex_renders_32_digits_and_round_trips_display() {
        let f = fp(&["x"]);
        assert_eq!(f.to_hex().len(), 32);
        assert_eq!(format!("{f}"), f.to_hex());
        assert!(f.to_hex().chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn hex_matches_zero_padded_formatting() {
        let digits = 0x0123_4567_89ab_cdef_fedc_ba98_7654_3210_u128;
        for shift in 0..128 {
            for v in [
                1 << shift,
                u128::MAX >> shift,
                digits >> shift,
                digits << shift,
            ] {
                assert_eq!(Fingerprint(v).to_hex(), format!("{v:032x}"));
            }
        }
    }
}
