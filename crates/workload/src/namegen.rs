//! Deterministic machine-generated label synthesis.
//!
//! Disposable names are "generated in bulk using an algorithm" (§IV); this
//! module is that algorithm for the synthetic trace. Everything is a pure
//! function of a 64-bit seed so a name can be regenerated from
//! `(zone, day, index)` without storing it, and so two runs of a scenario
//! produce identical traces.

use dnsnoise_dns::{splitmix_finalize, Label, Name, RData};
use std::net::Ipv4Addr;

/// SplitMix64: a statistically solid 64→64-bit mixer, used to derive all
/// per-name randomness deterministically.
///
/// # Examples
///
/// ```
/// use dnsnoise_workload::mix64;
/// assert_ne!(mix64(1), mix64(2));
/// assert_eq!(mix64(7), mix64(7));
/// ```
pub fn mix64(z: u64) -> u64 {
    splitmix_finalize(z.wrapping_add(0x9e37_79b9_7f4a_7c15))
}

fn take_chars(seed: u64, len: usize, alphabet: &[u8]) -> String {
    let mut out = String::with_capacity(len);
    let mut state = seed;
    for i in 0..len {
        state = mix64(state ^ (i as u64).wrapping_mul(0x2545_f491_4f6c_dd1d));
        out.push(alphabet[(state % alphabet.len() as u64) as usize] as char);
    }
    out
}

/// A lowercase hex label of `len` characters derived from `seed`.
///
/// # Panics
///
/// Panics if `len` is zero or exceeds 63.
pub fn label_hex(seed: u64, len: usize) -> Label {
    assert!((1..=63).contains(&len));
    Label::new(&take_chars(seed, len, b"0123456789abcdef")).expect("hex label is valid")
}

/// A base32-flavoured label (the alphabet McAfee-style hash labels use).
///
/// # Panics
///
/// Panics if `len` is zero or exceeds 63.
pub fn label_base32(seed: u64, len: usize) -> Label {
    assert!((1..=63).contains(&len));
    Label::new(&take_chars(seed, len, b"abcdefghijklmnopqrstuvwxyz234567"))
        .expect("base32 label is valid")
}

/// An alphanumeric label.
///
/// # Panics
///
/// Panics if `len` is zero or exceeds 63.
pub fn label_alnum(seed: u64, len: usize) -> Label {
    assert!((1..=63).contains(&len));
    Label::new(&take_chars(seed, len, b"abcdefghijklmnopqrstuvwxyz0123456789"))
        .expect("alnum label is valid")
}

/// Deterministic name/record forge bound to a zone seed.
///
/// # Examples
///
/// ```
/// use dnsnoise_workload::NameForge;
///
/// let apex: dnsnoise_dns::Name = "avqs.mcafee.com".parse()?;
/// let forge = NameForge::new(9, apex.clone());
/// assert_ne!(forge.item_seed(1), forge.item_seed(2));
/// assert_eq!(forge.item_seed(1), NameForge::new(9, apex).item_seed(1)); // reproducible
/// # Ok::<(), dnsnoise_dns::NameParseError>(())
/// ```
#[derive(Debug, Clone)]
pub struct NameForge {
    seed: u64,
    apex: Name,
}

impl NameForge {
    /// Creates a forge for `apex` with the given seed.
    pub fn new(seed: u64, apex: Name) -> Self {
        NameForge { seed, apex }
    }

    /// The zone apex this forge mints children under.
    pub fn apex(&self) -> &Name {
        &self.apex
    }

    /// Derives the sub-seed for item `index`.
    pub fn item_seed(&self, index: u64) -> u64 {
        mix64(self.seed ^ mix64(index))
    }

    /// A deterministic globally-routable-looking IPv4 RDATA for `index`,
    /// kept out of reserved prefixes.
    pub fn ipv4(&self, index: u64) -> RData {
        let h = self.item_seed(index ^ 0xad0c_ad0c);
        let a = 1 + (h % 223) as u8; // 1..=223, skipping multicast/reserved high ranges
        let b = (h >> 8) as u8;
        let c = (h >> 16) as u8;
        let d = (h >> 24) as u8;
        let a = if a == 10 || a == 127 { 11 } else { a };
        RData::A(Ipv4Addr::new(a, b, c, d))
    }

    /// A deterministic loopback-range IPv4 RDATA (`127.0.0.0/16`), the
    /// signalling convention McAfee's file-reputation service uses (§IV-A).
    pub fn loopback_signal(&self, index: u64) -> RData {
        let h = self.item_seed(index ^ 0x51f7);
        RData::A(Ipv4Addr::new(127, 0, ((h >> 8) & 0xff) as u8, (h & 0xff) as u8))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_deterministic_and_spread() {
        assert_eq!(mix64(0), mix64(0));
        let a = mix64(1);
        let b = mix64(2);
        assert_ne!(a, b);
        // Avalanche sanity: flipping one input bit flips many output bits.
        let diff = (mix64(0x1234) ^ mix64(0x1235)).count_ones();
        assert!(diff > 16, "only {diff} bits differ");
    }

    #[test]
    fn labels_have_requested_length_and_alphabet() {
        let h = label_hex(42, 8);
        assert_eq!(h.len(), 8);
        assert!(h.as_str().chars().all(|c| c.is_ascii_hexdigit()));

        let b = label_base32(42, 26);
        assert_eq!(b.len(), 26);
        assert!(b.as_str().chars().all(|c| c.is_ascii_lowercase() || ('2'..='7').contains(&c)));

        let a = label_alnum(42, 12);
        assert_eq!(a.len(), 12);
        assert!(a.as_str().chars().all(|c| c.is_ascii_alphanumeric()));
    }

    #[test]
    fn different_seeds_give_different_labels() {
        assert_ne!(label_hex(1, 16), label_hex(2, 16));
    }

    #[test]
    fn forge_item_seeds_are_deterministic_and_distinct() {
        let apex: Name = "ipv6-exp.l.google.com".parse().unwrap();
        let forge = NameForge::new(77, apex.clone());
        let seeds: Vec<u64> = (0..100).map(|i| forge.item_seed(i)).collect();
        let unique: std::collections::HashSet<_> = seeds.iter().collect();
        assert_eq!(unique.len(), 100);
        assert_eq!(NameForge::new(77, apex).item_seed(5), seeds[5]);
    }

    #[test]
    fn ipv4_avoids_loopback_and_rfc1918_10() {
        let forge = NameForge::new(3, "x.com".parse().unwrap());
        for i in 0..1_000 {
            if let RData::A(ip) = forge.ipv4(i) {
                let o = ip.octets();
                assert_ne!(o[0], 127);
                assert_ne!(o[0], 10);
                assert!(o[0] >= 1 && o[0] <= 223);
            } else {
                panic!("expected A rdata");
            }
        }
    }

    #[test]
    fn loopback_signal_is_in_127_0_slash_16() {
        let forge = NameForge::new(3, "avqs.mcafee.com".parse().unwrap());
        for i in 0..100 {
            if let RData::A(ip) = forge.loopback_signal(i) {
                let o = ip.octets();
                assert_eq!((o[0], o[1]), (127, 0));
            } else {
                panic!("expected A rdata");
            }
        }
    }
}
