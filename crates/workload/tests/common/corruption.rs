//! Arbitrary damage to a serialized trace, shared by the reader's
//! never-panic proptest and the codec's differential proptest.

use proptest::prelude::*;

/// One corruption of a byte string.
#[derive(Debug, Clone)]
pub enum Corruption {
    FlipByte { offset: usize, value: u8 },
    Truncate { keep: usize },
    InsertBytes { offset: usize, bytes: Vec<u8> },
    DropNewlines,
}

pub fn corruption() -> impl Strategy<Value = Corruption> {
    prop_oneof![
        (any::<usize>(), any::<u8>())
            .prop_map(|(offset, value)| Corruption::FlipByte { offset, value }),
        any::<usize>().prop_map(|keep| Corruption::Truncate { keep }),
        (any::<usize>(), proptest::collection::vec(any::<u8>(), 0..64))
            .prop_map(|(offset, bytes)| Corruption::InsertBytes { offset, bytes }),
        Just(Corruption::DropNewlines),
    ]
}

/// Applies `corruptions` to `bytes` in order; offsets wrap to the length.
pub fn apply(bytes: &mut Vec<u8>, corruptions: Vec<Corruption>) {
    for c in corruptions {
        match c {
            Corruption::FlipByte { offset, value } => {
                if !bytes.is_empty() {
                    let at = offset % bytes.len();
                    bytes[at] = value;
                }
            }
            Corruption::Truncate { keep } => {
                let at = keep % (bytes.len() + 1);
                bytes.truncate(at);
            }
            Corruption::InsertBytes { offset, bytes: extra } => {
                let at = offset % (bytes.len() + 1);
                bytes.splice(at..at, extra);
            }
            Corruption::DropNewlines => bytes.retain(|&b| b != b'\n'),
        }
    }
}
