//! Total-parser properties for the durable file formats: the shared
//! frame, run images and manifests must round-trip bit-exactly, and
//! every truncation, bit flip, or arbitrary byte string must come back
//! as `Err` — never a panic, never a silently wrong value.

use dnsnoise_dns::{Name, QType, RData};
use dnsnoise_pdns::store::crc::crc32;
use dnsnoise_pdns::store::frame::{self, FrameError, Reader};
use dnsnoise_pdns::store::keys::{encode_key, CompositeKey};
use dnsnoise_pdns::store::manifest::{Manifest, RunFileMeta};
use dnsnoise_pdns::store::run::Run;
use dnsnoise_pdns::DailyNewRrs;
use proptest::prelude::*;
use std::net::Ipv4Addr;

/// Parses a run image against its own file CRC, the one a `MANIFEST`
/// would list for it, so the parser's own checks decide.
fn parse_run(bytes: &[u8]) -> Result<Run, FrameError> {
    Run::from_bytes(bytes, crc32(bytes))
}

/// Sorted, deduplicated composite-key entries — the invariant the engine
/// upholds before any run is built.
fn arb_entries() -> impl Strategy<Value = Vec<(CompositeKey, u64)>> {
    proptest::collection::vec(
        (
            proptest::string::string_regex("[a-z0-9]{1,6}(\\.[a-z0-9]{1,6}){1,3}").unwrap(),
            any::<[u8; 4]>(),
            0u64..7,
        ),
        1..24,
    )
    .prop_map(|raw| {
        let mut entries: Vec<(CompositeKey, u64)> = raw
            .into_iter()
            .map(|(name, ip, day)| {
                let name: Name = name.parse().unwrap();
                (encode_key(&name, QType::A, &RData::A(Ipv4Addr::from(ip))), day)
            })
            .collect();
        entries.sort();
        entries.dedup_by(|a, b| a.0 == b.0);
        entries
    })
}

fn arb_manifest() -> impl Strategy<Value = Manifest> {
    (
        proptest::collection::vec(any::<u64>(), 8..9),
        proptest::collection::vec((any::<u64>(), any::<u64>()), 0..5),
        proptest::collection::vec(
            (
                proptest::string::string_regex("run-[0-9a-f]{8}\\.bin").unwrap(),
                any::<u64>(),
                any::<u32>(),
            ),
            0..5,
        ),
    )
        .prop_map(|(f, per_day, runs)| Manifest {
            seq: f[0],
            memtable_cap: f[1],
            fanout: f[2],
            next_run_id: f[3],
            observed: f[4],
            storage_bytes: f[5],
            flushes: f[6],
            compactions: f[7],
            per_day: per_day
                .into_iter()
                .map(|(n, r)| DailyNewRrs { new_records: n, repeated_records: r })
                .collect(),
            runs: runs.into_iter().map(|(name, len, crc)| RunFileMeta { name, len, crc }).collect(),
        })
}

/// A magic in the shape every durable artifact uses: 1–6 tag letters,
/// version digits filling the rest, and the closing newline.
fn arb_magic() -> impl Strategy<Value = [u8; 8]> {
    (
        1usize..7,
        proptest::string::string_regex("[a-z]{6}").unwrap(),
        proptest::string::string_regex("[0-9]{6}").unwrap(),
    )
        .prop_map(|(tag_len, letters, digits)| {
            let mut magic = [b'\n'; 8];
            magic[..tag_len].copy_from_slice(&letters.as_bytes()[..tag_len]);
            magic[tag_len..7].copy_from_slice(&digits.as_bytes()[tag_len - 1..]);
            magic
        })
}

proptest! {
    /// The frame's guarantees, once, at the frame: `seal` → `open` hands
    /// back exactly the body; every strict prefix and every single-bit
    /// flip is rejected; a valid image is `Magic` under a foreign tag
    /// and `Version` under the same tag with another version digit;
    /// arbitrary bytes, with or without the magic in front, never panic.
    #[test]
    fn frame_roundtrips_and_rejects_every_mutation(
        magic in arb_magic(),
        body in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let _ = Reader::open(&magic, &body);
        let _ = Reader::open(&magic, &[&magic[..], &body[..]].concat());

        let image = frame::seal(&magic, &body);
        let mut r = Reader::open(&magic, &image).expect("pristine frame opens");
        prop_assert_eq!(r.take(body.len()).expect("whole body"), &body[..]);
        prop_assert_eq!(r.end(), Ok(()));

        for cut in 0..image.len() {
            prop_assert!(
                Reader::open(&magic, &image[..cut]).is_err(),
                "truncation to {} bytes must be rejected", cut
            );
        }
        for bit in 0..image.len() * 8 {
            let mut flipped = image.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            prop_assert!(
                Reader::open(&magic, &flipped).is_err(),
                "flip of bit {} must be rejected", bit
            );
        }

        let mut foreign = magic;
        foreign[0] = if magic[0] == b'z' { b'a' } else { magic[0] + 1 };
        prop_assert_eq!(Reader::open(&foreign, &image).unwrap_err(), FrameError::Magic);
        let mut other_version = magic;
        other_version[6] = if magic[6] == b'9' { b'0' } else { magic[6] + 1 };
        prop_assert_eq!(Reader::open(&other_version, &image).unwrap_err(), FrameError::Version);
    }

    /// `Run::to_bytes` → `Run::from_bytes` is the identity on the wire
    /// image, and no mutation of the image survives the checksum gates:
    /// every truncation and every sampled bit flip is rejected.
    #[test]
    fn run_image_roundtrips_and_rejects_every_mutation(entries in arb_entries()) {
        let run = Run::build(&entries);
        let bytes = run.to_bytes();
        let reparsed = parse_run(&bytes).expect("pristine image parses");
        prop_assert_eq!(reparsed.to_bytes(), bytes.clone(), "round-trip is bit-exact");
        prop_assert_eq!(reparsed.len(), run.len());

        for cut in 0..bytes.len() {
            prop_assert!(
                parse_run(&bytes[..cut]).is_err(),
                "truncation to {} bytes must be rejected", cut
            );
        }
        for at in (0..bytes.len()).step_by(3) {
            let mut flipped = bytes.clone();
            flipped[at] ^= 0x10;
            prop_assert!(
                parse_run(&flipped).is_err(),
                "bit flip at byte {} must be rejected", at
            );
        }
    }

    /// The same totality properties for the manifest format.
    #[test]
    fn manifest_roundtrips_and_rejects_every_mutation(manifest in arb_manifest()) {
        let bytes = manifest.to_bytes();
        let reparsed = Manifest::from_bytes(&bytes).expect("pristine manifest parses");
        prop_assert_eq!(reparsed, manifest, "round-trip is field-exact");

        for cut in 0..bytes.len() {
            prop_assert!(
                Manifest::from_bytes(&bytes[..cut]).is_err(),
                "truncation to {} bytes must be rejected", cut
            );
        }
        for at in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[at] ^= 0x01;
            prop_assert!(
                Manifest::from_bytes(&flipped).is_err(),
                "bit flip at byte {} must be rejected", at
            );
        }
    }

    /// Arbitrary byte strings — including ones that start with the right
    /// magic — never panic either parser.
    #[test]
    fn arbitrary_bytes_never_panic(
        mut bytes in proptest::collection::vec(any::<u8>(), 0..512),
        with_run_magic in any::<bool>(),
        with_manifest_magic in any::<bool>(),
    ) {
        let _ = parse_run(&bytes);
        let _ = Manifest::from_bytes(&bytes);
        if with_run_magic && bytes.len() >= 8 {
            bytes[..8].copy_from_slice(b"dnrun02\n");
            let _ = parse_run(&bytes);
        }
        if with_manifest_magic && bytes.len() >= 8 {
            bytes[..8].copy_from_slice(b"dnman02\n");
            let _ = Manifest::from_bytes(&bytes);
        }
    }
}
