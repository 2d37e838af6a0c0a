//! Two-codes-per-byte packing for 4-bit integer weights.
//!
//! A 4-bit weight code occupies the range `[-8, 7]` (symmetric quantization
//! actually uses `[-7, 7]`, but the full two's-complement nibble range is
//! representable). Packing stores consecutive codes in nibble pairs —
//! element `2i` in the low nibble of byte `i`, element `2i + 1` in the high
//! nibble — halving the storage of a w4 weight matrix. An odd trailing
//! element leaves the final high nibble zero.
//!
//! This is a **storage** layout: the v2 model-artifact format packs 4-bit
//! weight tensors with [`pack_i4`] on save and widens them back to plain
//! `i8` codes with [`unpack_i4`] on load. At layer construction the GEMM
//! either re-packs the widened codes into its `i16` panel layout exactly as
//! for 8-bit weights, or — for `weight_bits ≤ 4` — builds nibble panels
//! (`PackedWeights::pack_nibble`) holding the same nibbles biased by 8
//! (`nibble ^ 8`), which the SIMD kernels multiply as unsigned bytes. The
//! property tests in `tests/proptest_pack4.rs` pin `unpack(pack(x)) == x`
//! over the whole nibble range.

use crate::{Result, TensorError};

/// Packs 4-bit codes (each in `[-8, 7]`) two per byte, low nibble first.
///
/// # Errors
///
/// Returns [`TensorError::ValueOutOfRange`] if any code does not fit a
/// signed nibble.
pub fn pack_i4(codes: &[i8]) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(codes.len().div_ceil(2));
    for pair in codes.chunks(2) {
        let lo = nibble(pair[0])?;
        let hi = if pair.len() == 2 { nibble(pair[1])? } else { 0 };
        out.push(lo | (hi << 4));
    }
    Ok(out)
}

/// Unpacks `len` 4-bit codes from their nibble-pair encoding, sign-extending
/// each nibble back to `i8`.
///
/// # Errors
///
/// Returns [`TensorError::ValueOutOfRange`] if `bytes` is not exactly
/// `ceil(len / 2)` bytes, or if an odd `len` leaves a non-zero final high
/// nibble (a corrupt encoding — the packer always zeroes it).
pub fn unpack_i4(bytes: &[u8], len: usize) -> Result<Vec<i8>> {
    if bytes.len() != len.div_ceil(2) {
        return Err(TensorError::ValueOutOfRange {
            what: "packed int4 byte count",
            value: bytes.len() as i64,
        });
    }
    if len % 2 == 1 {
        let last = bytes[bytes.len() - 1];
        if last >> 4 != 0 {
            return Err(TensorError::ValueOutOfRange {
                what: "trailing int4 high nibble (must be zero padding)",
                value: i64::from(last >> 4),
            });
        }
    }
    let mut out = Vec::with_capacity(len);
    for (i, &byte) in bytes.iter().enumerate() {
        out.push(sign_extend(byte & 0x0f));
        if 2 * i + 1 < len {
            out.push(sign_extend(byte >> 4));
        }
    }
    Ok(out)
}

/// The two's-complement nibble of a code in `[-8, 7]`.
///
/// Shared with `gemm::PackedWeights::pack_nibble`, which biases it
/// (`^ 8`) into the direct-compute nibble panels.
pub(crate) fn nibble(code: i8) -> Result<u8> {
    if !(-8..=7).contains(&code) {
        return Err(TensorError::ValueOutOfRange {
            what: "int4 weight code",
            value: i64::from(code),
        });
    }
    // fqlint::allow(narrowing-cast): range-checked to [-8, 7] above; the
    // cast is the two's-complement nibble encoding itself.
    Ok((code as u8) & 0x0f)
}

/// Sign-extends a two's-complement nibble back to `i8`.
fn sign_extend(nibble: u8) -> i8 {
    // fqlint::allow(narrowing-cast): same-width `u8 -> i8`
    // reinterpretation — the shift pair is the sign extension.
    ((nibble << 4) as i8) >> 4
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_the_whole_nibble_range() {
        let codes: Vec<i8> = (-8..=7).collect();
        let packed = pack_i4(&codes).unwrap();
        assert_eq!(packed.len(), 8);
        assert_eq!(unpack_i4(&packed, codes.len()).unwrap(), codes);
    }

    #[test]
    fn odd_lengths_pad_the_final_high_nibble_with_zero() {
        let codes = [3i8, -2, 7];
        let packed = pack_i4(&codes).unwrap();
        assert_eq!(packed.len(), 2);
        assert_eq!(packed[1] >> 4, 0);
        assert_eq!(unpack_i4(&packed, 3).unwrap(), codes);
    }

    #[test]
    fn empty_input_round_trips() {
        assert!(pack_i4(&[]).unwrap().is_empty());
        assert!(unpack_i4(&[], 0).unwrap().is_empty());
    }

    #[test]
    fn out_of_range_codes_are_rejected() {
        assert!(pack_i4(&[8]).is_err());
        assert!(pack_i4(&[-9]).is_err());
        assert!(pack_i4(&[127]).is_err());
    }

    #[test]
    fn wrong_byte_counts_and_dirty_padding_are_rejected() {
        assert!(unpack_i4(&[0, 0], 5).is_err());
        assert!(unpack_i4(&[0], 3).is_err());
        // Odd length with a non-zero trailing high nibble is corrupt.
        assert!(unpack_i4(&[0x00, 0x10], 3).is_err());
    }

    #[test]
    fn negative_codes_sign_extend() {
        let packed = pack_i4(&[-1, -8]).unwrap();
        assert_eq!(packed, vec![0x8f]);
        assert_eq!(unpack_i4(&packed, 2).unwrap(), vec![-1, -8]);
    }
}
