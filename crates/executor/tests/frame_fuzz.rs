//! Byte fuzzing of the frame decoder: whatever bytes arrive — random, or
//! a valid frame with bytes overwritten, cut or appended — decoding never
//! panics, and every batch it accepts is exactly what the frame's length
//! can carry: `24 + 8 · width · rows == len`, so what the decoder
//! allocates is bounded by the frame it was handed.

use dqep_executor::{decode_frame_traced, encode_frame, RowBatch, FRAME_HEADER_BYTES};
use proptest::prelude::*;

/// Decodes `bytes` and checks the one property every accepted frame has.
fn check(bytes: &[u8]) {
    if let Ok((batch, _)) = decode_frame_traced(bytes) {
        assert_eq!(FRAME_HEADER_BYTES + 8 * batch.width() * batch.rows(), bytes.len());
        assert!(batch.selection().is_none());
    }
}

/// A valid frame of `width` columns and `rows` rows.
fn frame(width: usize, rows: usize, seed: i64) -> Vec<u8> {
    let mut batch = RowBatch::with_capacity(width, rows);
    for r in 0..rows as i64 {
        let row: Vec<i64> = (0..width as i64).map(|c| seed ^ (r * 31 + c)).collect();
        batch.push_row(&row);
    }
    encode_frame(&batch)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..160)) {
        check(&bytes);
    }

    /// A valid frame with up to four bytes overwritten — header fields
    /// included — and then cut short or extended.
    #[test]
    fn mutated_frames_never_panic(
        width in 0usize..6,
        rows in 0usize..6,
        seed in any::<i64>(),
        edits in proptest::collection::vec((any::<usize>(), any::<u8>()), 0..4),
        resize in prop_oneof![Just(None), (0usize..200).prop_map(Some)],
    ) {
        let mut bytes = frame(width, rows, seed);
        check(&bytes);
        for (at, value) in edits {
            let len = bytes.len();
            bytes[at % len] = value;
        }
        if let Some(len) = resize {
            bytes.resize(len, 0xAB);
        }
        check(&bytes);
    }
}
