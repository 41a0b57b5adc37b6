//! Fixture: one certified zone tripping every `no-panic` construct
//! class — panicking methods, panicking macros (debug asserts
//! included), raw indexing, unguarded division and modulo, and the
//! unchecked-arithmetic rules armed by the untrusted-input signature.
//!
//! Never compiled; linted by `lint_tests.rs` under a synthetic
//! `crates/fake/src/` path against the committed std allowlist.

// lint:certify(no-panic)
pub fn decode(bytes: &[u8], n: usize, m: usize) -> usize {
    let tag = bytes.first().unwrap(); // EXPECT no-panic
    let kind = bytes.get(1).expect("two bytes"); // EXPECT no-panic
    if *tag == 0 {
        panic!("zero tag"); // EXPECT no-panic
    }
    if *kind == 255 {
        unreachable!("the tag space is 0..=254"); // EXPECT no-panic
    }
    assert!(n < 100); // EXPECT no-panic
    debug_assert!(m < 100); // EXPECT no-panic
    let raw = bytes[n]; // EXPECT no-panic
    let quot = n / m; // EXPECT no-panic
    let rem = n % m; // EXPECT no-panic
    let body = bytes.len() - 4; // EXPECT no-panic
    let scaled = n * m; // EXPECT no-panic
    let sum = n + usize::from(raw); // EXPECT no-panic
    quot.min(rem).min(body).min(scaled).min(sum)
}
