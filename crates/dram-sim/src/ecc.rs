//! SECDED (72,64) error-correcting code.
//!
//! The X-Gene2 MCUs protect every 64-bit word with 8 check bits of a
//! single-error-correct / double-error-detect Hamming code. SLIMpro reports
//! corrected errors (CE) and detected-but-uncorrectable errors (UE) to the
//! kernel; the paper's DRAM result hinges on "all manifested errors are
//! corrected by ECC" at relaxed refresh up to 60 °C.
//!
//! This is an extended Hamming implementation: check bits at power-of-two
//! positions of a 1-based 71-bit layout plus one overall-parity bit.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Number of data bits per code word.
pub const DATA_BITS: u32 = 64;
/// Number of check bits (7 Hamming + 1 overall parity).
pub const CHECK_BITS: u32 = 8;
/// Total code-word length in bits.
pub const CODE_BITS: u32 = DATA_BITS + CHECK_BITS;

/// A 72-bit code word (stored in the low 72 bits of a `u128`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CodeWord(u128);

impl CodeWord {
    /// Raw 72-bit value.
    pub const fn bits(self) -> u128 {
        self.0
    }

    /// Builds a code word from raw bits (e.g. after simulated cell decay).
    ///
    /// # Panics
    ///
    /// Panics if bits above position 71 are set.
    pub fn from_bits(bits: u128) -> Self {
        assert!(
            bits >> CODE_BITS == 0,
            "code word has only {CODE_BITS} bits"
        );
        CodeWord(bits)
    }

    /// Flips a single bit (simulating a retention failure).
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 72`.
    pub fn with_bit_flipped(self, bit: u32) -> CodeWord {
        assert!(bit < CODE_BITS, "bit must be < {CODE_BITS}");
        CodeWord(self.0 ^ (1u128 << bit))
    }

    /// Reads one bit.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 72`.
    pub fn bit(self, bit: u32) -> bool {
        assert!(bit < CODE_BITS, "bit must be < {CODE_BITS}");
        (self.0 >> bit) & 1 == 1
    }
}

/// Outcome of decoding a (possibly corrupted) code word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DecodeOutcome {
    /// No error detected.
    Clean {
        /// The decoded 64-bit payload.
        data: u64,
    },
    /// A single-bit error was detected and corrected.
    Corrected {
        /// The corrected 64-bit payload.
        data: u64,
        /// Position of the flipped bit in the 72-bit code word.
        code_bit: u32,
    },
    /// A double-bit error was detected; the data is unrecoverable.
    Uncorrectable,
}

impl DecodeOutcome {
    /// The payload, if the word was clean or corrected.
    pub fn data(self) -> Option<u64> {
        match self {
            DecodeOutcome::Clean { data } | DecodeOutcome::Corrected { data, .. } => Some(data),
            DecodeOutcome::Uncorrectable => None,
        }
    }

    /// Whether a correctable error (CE) was reported.
    pub fn is_corrected(self) -> bool {
        matches!(self, DecodeOutcome::Corrected { .. })
    }

    /// Whether an uncorrectable error (UE) was reported.
    pub fn is_uncorrectable(self) -> bool {
        matches!(self, DecodeOutcome::Uncorrectable)
    }
}

impl fmt::Display for DecodeOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeOutcome::Clean { .. } => f.write_str("clean"),
            DecodeOutcome::Corrected { code_bit, .. } => write!(f, "CE@bit{code_bit}"),
            DecodeOutcome::Uncorrectable => f.write_str("UE"),
        }
    }
}

/// The (72,64) SECDED codec.
///
/// # Examples
///
/// ```
/// use dram_sim::ecc::{DecodeOutcome, Secded72};
///
/// let codec = Secded72::new();
/// let word = codec.encode(0xDEAD_BEEF_CAFE_F00D);
/// // A single flipped cell is corrected:
/// let outcome = codec.decode(word.with_bit_flipped(17));
/// assert_eq!(outcome.data(), Some(0xDEAD_BEEF_CAFE_F00D));
/// assert!(outcome.is_corrected());
/// // Two flipped cells are detected but not corrected:
/// let outcome = codec.decode(word.with_bit_flipped(17).with_bit_flipped(41));
/// assert!(outcome.is_uncorrectable());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Secded72 {
    _private: (),
}

/// Layout: 1-based Hamming positions `1..=71`. Positions 1,2,4,8,16,32,64
/// hold the 7 Hamming check bits; the remaining 64 positions hold data bits
/// in ascending order. Code-word bit 71 (the 72nd bit) holds the overall
/// parity of positions `1..=71`.
///
/// The data bits therefore sit in six runs between the check positions,
/// listed as `(first data bit, first code bit, run length)`: data bit 0 at
/// code bit 2, 1–3 at 4–6, 4–10 at 8–14, 11–25 at 16–30, 26–56 at 32–62
/// and 57–63 at 64–70.
const DATA_RUNS: [(u32, u32, u32); 6] = [
    (0, 2, 1),
    (1, 4, 3),
    (4, 8, 7),
    (11, 16, 15),
    (26, 32, 31),
    (57, 64, 7),
];

/// Code bits `0..=70`: Hamming positions `1..=71`.
const HAMMING_BITS: u128 = (1 << 71) - 1;
/// All 72 code bits.
const CODE_MASK: u128 = (1 << CODE_BITS) - 1;

/// `SYNDROME_MASKS[k]` selects the code bits whose Hamming position has bit
/// `k` set. The parity of a word under mask `k` is syndrome bit `k`; on a
/// word holding only data bits it is check bit `k`, which sits at position
/// `1 << k` and so under mask `k` alone.
const SYNDROME_MASKS: [u128; 7] = syndrome_masks();

const fn syndrome_masks() -> [u128; 7] {
    let mut masks = [0u128; 7];
    let mut k = 0;
    while k < 7 {
        let mut pos = 1u32;
        while pos <= 71 {
            if pos & (1 << k) != 0 {
                masks[k] |= 1 << (pos - 1);
            }
            pos += 1;
        }
        k += 1;
    }
    masks
}

/// Parity (0 or 1) of the bits of `word` under `mask`.
#[inline]
fn parity(word: u128, mask: u128) -> u32 {
    (word & mask).count_ones() & 1
}

/// Places the 64 data bits at their code positions; check bits stay 0.
#[inline]
fn scatter(data: u64) -> u128 {
    let mut word = 0u128;
    for (data_bit, code_bit, len) in DATA_RUNS {
        let run = (data >> data_bit) & (u64::MAX >> (64 - len));
        word |= u128::from(run) << code_bit;
    }
    word
}

/// Inverse of [`scatter`]: reads the 64 data bits back out of a code word.
#[inline]
fn gather(word: u128) -> u64 {
    let mut data = 0u64;
    for (data_bit, code_bit, len) in DATA_RUNS {
        let run = (word >> code_bit) as u64 & (u64::MAX >> (64 - len));
        data |= run << data_bit;
    }
    data
}

impl Secded72 {
    /// Creates the codec.
    pub fn new() -> Self {
        Secded72 { _private: () }
    }

    /// Encodes a 64-bit payload into a 72-bit code word.
    #[inline]
    pub fn encode(&self, data: u64) -> CodeWord {
        let mut word = scatter(data);
        // Hamming check bits: parity over the data positions under each
        // syndrome mask (the check positions are still 0).
        for (k, &mask) in SYNDROME_MASKS.iter().enumerate() {
            word |= u128::from(parity(word, mask)) << ((1u32 << k) - 1);
        }
        // Overall parity over positions 1..=71 (code bits 0..=70).
        word |= u128::from(parity(word, HAMMING_BITS)) << 71;
        CodeWord(word)
    }

    /// Decodes a code word, correcting a single-bit error and detecting
    /// double-bit errors.
    #[inline]
    pub fn decode(&self, word: CodeWord) -> DecodeOutcome {
        let bits = word.0;
        // The Hamming syndrome over positions 1..=71: the XOR of the
        // positions of every set bit, one parity per syndrome bit.
        let mut syndrome: u32 = 0;
        for (k, &mask) in SYNDROME_MASKS.iter().enumerate() {
            syndrome |= parity(bits, mask) << k;
        }
        let overall = parity(bits, CODE_MASK) == 1;

        let (corrected_bits, corrected_bit) = if syndrome == 0 && !overall {
            (bits, None)
        } else if overall {
            // Odd overall parity ⇒ an odd number of flips; assume one and
            // correct it. Syndrome 0 with odd parity means the overall
            // parity bit itself flipped.
            let code_bit = if syndrome == 0 { 71 } else { syndrome - 1 };
            if syndrome > 71 {
                // Syndrome points outside the word: a multi-bit corruption.
                return DecodeOutcome::Uncorrectable;
            }
            (bits ^ (1u128 << code_bit), Some(code_bit))
        } else {
            // Even parity with non-zero syndrome ⇒ double-bit error.
            return DecodeOutcome::Uncorrectable;
        };

        let data = gather(corrected_bits);
        match corrected_bit {
            None => DecodeOutcome::Clean { data },
            Some(code_bit) => DecodeOutcome::Corrected { data, code_bit },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The code's definition, position by position: the reference the
    /// mask codec must match bit for bit.
    mod per_bit {
        use super::super::{CodeWord, DecodeOutcome, DATA_BITS};

        fn is_check_position(pos: u32) -> bool {
            pos.is_power_of_two()
        }

        pub fn encode(data: u64) -> CodeWord {
            let mut word: u128 = 0;
            // Scatter data bits into non-power-of-two positions 1..=71.
            let mut data_idx = 0;
            for pos in 1..=71u32 {
                if is_check_position(pos) {
                    continue;
                }
                if (data >> data_idx) & 1 == 1 {
                    word |= 1u128 << (pos - 1);
                }
                data_idx += 1;
            }
            assert_eq!(data_idx, DATA_BITS);
            // Hamming check bits: parity over positions with that bit set.
            for check in 0..7u32 {
                let mask = 1u32 << check;
                let mut parity = false;
                for pos in 1..=71u32 {
                    if pos & mask != 0 && !is_check_position(pos) && (word >> (pos - 1)) & 1 == 1 {
                        parity = !parity;
                    }
                }
                if parity {
                    word |= 1u128 << ((1u32 << check) - 1);
                }
            }
            // Overall parity over positions 1..=71 (code bits 0..=70).
            let ones = (word & ((1u128 << 71) - 1)).count_ones();
            if ones % 2 == 1 {
                word |= 1u128 << 71;
            }
            CodeWord(word)
        }

        pub fn decode(word: CodeWord) -> DecodeOutcome {
            let bits = word.0;
            let mut syndrome: u32 = 0;
            for pos in 1..=71u32 {
                if (bits >> (pos - 1)) & 1 == 1 {
                    syndrome ^= pos;
                }
            }
            let overall = (bits & ((1u128 << 72) - 1)).count_ones() % 2 == 1;

            let (corrected_bits, corrected_bit) = if syndrome == 0 && !overall {
                (bits, None)
            } else if overall {
                let code_bit = if syndrome == 0 { 71 } else { syndrome - 1 };
                if syndrome > 71 {
                    return DecodeOutcome::Uncorrectable;
                }
                (bits ^ (1u128 << code_bit), Some(code_bit))
            } else {
                return DecodeOutcome::Uncorrectable;
            };

            let mut data: u64 = 0;
            let mut data_idx = 0;
            for pos in 1..=71u32 {
                if is_check_position(pos) {
                    continue;
                }
                if (corrected_bits >> (pos - 1)) & 1 == 1 {
                    data |= 1u64 << data_idx;
                }
                data_idx += 1;
            }
            match corrected_bit {
                None => DecodeOutcome::Clean { data },
                Some(code_bit) => DecodeOutcome::Corrected { data, code_bit },
            }
        }
    }

    #[test]
    fn mask_codec_matches_the_per_bit_oracle() {
        let codec = Secded72::new();
        let mut rng = StdRng::seed_from_u64(0x5ECDED);
        let mut words = vec![0, u64::MAX, 0x5555_5555_5555_5555, 1 << 63];
        words.extend((0..64).map(|_| rng.gen::<u64>()));
        let same = |w: CodeWord| {
            let out = codec.decode(w);
            assert_eq!(out, per_bit::decode(w), "decode {:#x}", w.bits());
            out
        };
        // Triple flips have odd parity: the oracle either miscorrects them
        // or finds the syndrome past position 71.
        let (mut miscorrected, mut beyond_the_word) = (0, 0);
        for data in words {
            let word = codec.encode(data);
            assert_eq!(
                word.bits(),
                per_bit::encode(data).bits(),
                "encode {data:#x}"
            );
            same(word);
            for a in 0..CODE_BITS {
                let single = word.with_bit_flipped(a);
                same(single);
                for b in (a + 1)..CODE_BITS {
                    same(single.with_bit_flipped(b));
                }
            }
            for _ in 0..256 {
                let a = rng.gen_range(0..CODE_BITS);
                let b = (a + rng.gen_range(1..CODE_BITS)) % CODE_BITS;
                let c = (0..CODE_BITS)
                    .cycle()
                    .skip(rng.gen_range(0..CODE_BITS) as usize)
                    .find(|&c| c != a && c != b)
                    .unwrap();
                match same(
                    word.with_bit_flipped(a)
                        .with_bit_flipped(b)
                        .with_bit_flipped(c),
                ) {
                    DecodeOutcome::Uncorrectable => beyond_the_word += 1,
                    DecodeOutcome::Corrected { .. } => miscorrected += 1,
                    DecodeOutcome::Clean { .. } => panic!("a triple flip decoded clean"),
                }
                let garbage = (u128::from(rng.gen::<u64>()) << 64) | u128::from(rng.gen::<u64>());
                same(CodeWord::from_bits(garbage & CODE_MASK));
            }
        }
        assert!(miscorrected > 0 && beyond_the_word > 0);
    }

    #[test]
    fn roundtrip_simple_values() {
        let codec = Secded72::new();
        for data in [
            0u64,
            u64::MAX,
            0x5555_5555_5555_5555,
            0xAAAA_AAAA_AAAA_AAAA,
            1,
            1 << 63,
        ] {
            let word = codec.encode(data);
            assert_eq!(codec.decode(word), DecodeOutcome::Clean { data });
        }
    }

    #[test]
    fn corrects_every_single_bit_flip_of_zero_word() {
        let codec = Secded72::new();
        let word = codec.encode(0);
        for bit in 0..CODE_BITS {
            let out = codec.decode(word.with_bit_flipped(bit));
            assert_eq!(out.data(), Some(0), "bit {bit}");
            assert!(out.is_corrected(), "bit {bit}");
        }
    }

    #[test]
    fn corrected_bit_position_is_reported() {
        let codec = Secded72::new();
        let word = codec.encode(0x0123_4567_89AB_CDEF);
        match codec.decode(word.with_bit_flipped(42)) {
            DecodeOutcome::Corrected { code_bit, .. } => assert_eq!(code_bit, 42),
            other => panic!("expected correction, got {other:?}"),
        }
    }

    #[test]
    fn detects_all_double_flips_on_sample_word() {
        let codec = Secded72::new();
        let word = codec.encode(0xFEED_FACE_DEAD_BEEF);
        for a in 0..CODE_BITS {
            for b in (a + 1)..CODE_BITS {
                let corrupted = word.with_bit_flipped(a).with_bit_flipped(b);
                assert!(
                    codec.decode(corrupted).is_uncorrectable(),
                    "double flip ({a},{b}) not detected"
                );
            }
        }
    }

    #[test]
    fn code_word_bit_access() {
        let codec = Secded72::new();
        let word = codec.encode(u64::MAX);
        let flipped = word.with_bit_flipped(0);
        assert_ne!(word.bit(0), flipped.bit(0));
    }

    #[test]
    #[should_panic(expected = "bit must be <")]
    fn flip_rejects_out_of_range() {
        let codec = Secded72::new();
        let _ = codec.encode(0).with_bit_flipped(72);
    }

    proptest! {
        #[test]
        fn prop_roundtrip(data: u64) {
            let codec = Secded72::new();
            prop_assert_eq!(codec.decode(codec.encode(data)), DecodeOutcome::Clean { data });
        }

        #[test]
        fn prop_single_flip_corrected(data: u64, bit in 0u32..CODE_BITS) {
            let codec = Secded72::new();
            let out = codec.decode(codec.encode(data).with_bit_flipped(bit));
            prop_assert!(out.is_corrected());
            prop_assert_eq!(out.data(), Some(data));
        }

        #[test]
        fn prop_double_flip_detected(
            data: u64,
            a in 0u32..CODE_BITS,
            b in 0u32..CODE_BITS,
        ) {
            prop_assume!(a != b);
            let codec = Secded72::new();
            let out = codec.decode(codec.encode(data).with_bit_flipped(a).with_bit_flipped(b));
            prop_assert!(out.is_uncorrectable());
        }
    }
}
