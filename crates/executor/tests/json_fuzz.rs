//! Byte fuzzing of the JSON parser, the one reader of every document the
//! system writes and `check-explain` reads back from files: whatever bytes
//! arrive — random, or a written document with bytes overwritten, cut or
//! appended — parsing never panics; nesting past 128 levels is an error,
//! not a stack overflow, however deep it goes; and whatever [`JsonWriter`]
//! emits parses back to the value it wrote.

use dqep_executor::{parse_json, JsonValue, JsonWriter, Scalar};
use proptest::prelude::*;

/// Parses `bytes` as the text a reader makes of them: as they are when
/// they are UTF-8, and with invalid sequences replaced either way.
fn check(bytes: &[u8]) {
    if let Ok(text) = std::str::from_utf8(bytes) {
        let _ = parse_json(text);
    }
    let _ = parse_json(&String::from_utf8_lossy(bytes));
}

/// SplitMix64: the generator of the values written below.
struct Rng(u64);

impl Rng {
    fn next(&mut self, bound: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % bound.max(1)
    }

    /// A string of control characters, quotes, backslashes, ASCII and
    /// characters of two to four UTF-8 bytes.
    fn text(&mut self) -> String {
        const CHARS: [char; 12] =
            ['a', 'Z', '0', ' ', '"', '\\', '\n', '\t', '\u{1}', '\u{1f}', 'é', '\u{1F600}'];
        (0..self.next(8)).map(|_| CHARS[self.next(CHARS.len() as u64) as usize]).collect()
    }

    /// A value nested at most `depth` levels below this one. Numbers are
    /// finite: the writer writes `null` for the others.
    fn value(&mut self, depth: u32) -> JsonValue {
        let kinds = if depth == 0 { 4 } else { 6 };
        match self.next(kinds) {
            0 => JsonValue::Null,
            1 => JsonValue::Bool(self.next(2) == 0),
            2 => {
                let bits = self.next(u64::MAX);
                let n = match self.next(3) {
                    0 => self.next(2_000_001) as f64 - 1_000_000.0,
                    1 => f64::from_bits(bits),
                    _ => (bits as f64) / 1e9 - 9e9,
                };
                JsonValue::Num(if n.is_finite() { n } else { 0.5 })
            }
            3 => JsonValue::Str(self.text()),
            4 => JsonValue::Arr((0..self.next(4)).map(|_| self.value(depth - 1)).collect()),
            _ => JsonValue::Obj(
                (0..self.next(4)).map(|_| (self.text(), self.value(depth - 1))).collect(),
            ),
        }
    }
}

/// Writes `value` with the writer every emitter uses.
fn write(w: &mut JsonWriter, value: &JsonValue) {
    match value {
        JsonValue::Null => w.val(Scalar::Null),
        JsonValue::Bool(b) => w.val(*b),
        JsonValue::Num(n) => w.val(*n),
        JsonValue::Str(s) => w.val(s.as_str()),
        JsonValue::Arr(items) => w.arr(items, write),
        JsonValue::Obj(members) => w.obj(|w| {
            for (key, member) in members {
                write(w.key(key), member);
            }
        }),
    }
}

fn document(value: &JsonValue) -> String {
    let mut w = JsonWriter::new();
    write(&mut w, value);
    w.finish()
}

/// `levels` arrays (or objects of one member `"k"`) nested in each other
/// around `null`.
fn nested(levels: usize, objects: bool) -> String {
    let (open, close) = if objects { ("{\"k\":", "}") } else { ("[", "]") };
    format!("{}null{}", open.repeat(levels), close.repeat(levels))
}

#[test]
fn nesting_past_128_levels_is_an_error_at_any_depth() {
    for objects in [false, true] {
        assert!(parse_json(&nested(128, objects)).is_ok(), "128 levels are followed");
        for levels in [129, 1_000, 1_000_000] {
            let err = parse_json(&nested(levels, objects)).expect_err("too deep");
            assert!(err.contains("deeper than 128"), "{levels} levels: {err}");
        }
    }
    // Unclosed, and mixed: the depth is counted whatever the bracket.
    assert!(parse_json(&"[{\"a\":".repeat(100_000)).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..160)) {
        check(&bytes);
    }

    /// Bytes drawn from JSON's own alphabet reach deeper into the parser
    /// than uniform ones.
    #[test]
    fn arbitrary_json_alphabet_never_panics(picks in proptest::collection::vec(any::<u8>(), 0..160)) {
        const ALPHABET: &[u8] = b"{}[]:,\"\\ -+.eE0123456789tfnrulsabu\xc3\xa9";
        let bytes: Vec<u8> = picks.iter().map(|&p| ALPHABET[p as usize % ALPHABET.len()]).collect();
        check(&bytes);
    }

    #[test]
    fn what_the_writer_emits_parses_back(seed in any::<u64>()) {
        let value = Rng(seed).value(5);
        let text = document(&value);
        prop_assert_eq!(parse_json(&text), Ok(value));
    }

    /// A written document with up to four bytes overwritten, then cut
    /// short or extended.
    #[test]
    fn mutated_documents_never_panic(
        seed in any::<u64>(),
        edits in proptest::collection::vec((any::<usize>(), any::<u8>()), 0..4),
        resize in prop_oneof![Just(None), (0usize..400).prop_map(Some)],
    ) {
        let mut bytes = document(&Rng(seed).value(5)).into_bytes();
        for (at, value) in edits {
            let len = bytes.len();
            bytes[at % len] = value;
        }
        if let Some(len) = resize {
            bytes.resize(len, b'[');
        }
        check(&bytes);
    }
}
