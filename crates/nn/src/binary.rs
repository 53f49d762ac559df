//! Compact binary model format.
//!
//! The serde (JSON) form of an [`Mlp`] is ~5x larger than the paper's
//! model-size accounting (4 bytes per parameter). This module provides
//! that compact form — and two opt-in quantized
//! variants below it — the formats a production release of NeuroSketch
//! would actually ship to consumers. The [`QuantMode`] selects the
//! parameter encoding:
//!
//! * [`QuantMode::F32`] — 4 B/param, the paper's storage model. Lossy
//!   exactly once (f64 → f32); further round trips are bitwise.
//! * [`QuantMode::F16`] — 2 B/param IEEE 754 binary16, round-to-nearest
//!   -even with saturation at ±65504 (the encoder never emits
//!   infinities, so any non-finite half in a blob is corruption).
//! * [`QuantMode::I8`] — 1 B/param plus one f32 scale per tensor
//!   (weight matrix or bias vector). The scale is the minimal **power
//!   of two** `p` with `max|v| < 127.5·p`, so `q = round(v/p)` fits in
//!   `[-127, 127]` and the dequantized value `q·p` is *exact* in f32.
//!
//! All three decode to a deterministic dequantized [`Mlp`], so
//! load → re-encode is byte-idempotent for every mode and answers are
//! bitwise reproducible across loads.
//!
//! This module is the only definition of each mode's rounding: the
//! primitives are private, [`encode_with`] and [`decode_any`] are the
//! whole API, and [`Mlp::quantized_to`] is their round trip.
//!
//! Layout (little-endian; `magic` selects the mode):
//!
//! ```text
//! magic  u32 = 0x4E53_4B31 (f32) | 0x4E53_4B66 (f16) | 0x4E53_4B71 (i8)
//! layers u32
//! per layer: out u32, in u32, activation u8 (0 = ReLU, 1 = identity)
//! f32: per layer: weights (out*in f32, row-major), biases (out f32)
//! f16: per layer: weights (out*in u16),            biases (out u16)
//! i8:  per layer: wscale f32, weights (out*in i8), bscale f32, biases (out i8)
//! ```

use crate::activation::Activation;
use crate::linalg::Matrix;
use crate::mlp::{Dense, Mlp};
use crate::NnError;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use serde::{Deserialize, Serialize};

const MAGIC: u32 = 0x4E53_4B31;
const MAGIC_F16: u32 = 0x4E53_4B66;
const MAGIC_I8: u32 = 0x4E53_4B71;

/// Parameter encoding of a model blob. See the module docs for the
/// accuracy contract of each mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QuantMode {
    /// 4 B/param `f32` — the paper's storage accounting; highest fidelity.
    F32,
    /// 2 B/param IEEE 754 binary16, saturating at ±65504.
    F16,
    /// 1 B/param `i8` with one power-of-two f32 scale per tensor.
    I8,
}

impl QuantMode {
    /// Every mode, in fidelity order (f32 first).
    pub const ALL: [QuantMode; 3] = [QuantMode::F32, QuantMode::F16, QuantMode::I8];

    /// Stable one-byte wire tag (recorded per model in NSK2 v3 headers).
    pub fn tag(self) -> u8 {
        match self {
            QuantMode::F32 => 0,
            QuantMode::F16 => 1,
            QuantMode::I8 => 2,
        }
    }

    /// Inverse of [`QuantMode::tag`]; `None` for unknown tags.
    pub fn from_tag(tag: u8) -> Option<QuantMode> {
        match tag {
            0 => Some(QuantMode::F32),
            1 => Some(QuantMode::F16),
            2 => Some(QuantMode::I8),
            _ => None,
        }
    }

    /// Lower-case human name (`"f32"` / `"f16"` / `"i8"`), as used by
    /// CLI flags and bench entry names.
    pub fn name(self) -> &'static str {
        match self {
            QuantMode::F32 => "f32",
            QuantMode::F16 => "f16",
            QuantMode::I8 => "i8",
        }
    }

    /// Parse a [`QuantMode::name`] string (case-sensitive).
    pub fn parse(s: &str) -> Option<QuantMode> {
        match s {
            "f32" => Some(QuantMode::F32),
            "f16" => Some(QuantMode::F16),
            "i8" => Some(QuantMode::I8),
            _ => None,
        }
    }

    fn magic(self) -> u32 {
        match self {
            QuantMode::F32 => MAGIC,
            QuantMode::F16 => MAGIC_F16,
            QuantMode::I8 => MAGIC_I8,
        }
    }
}

impl Default for QuantMode {
    /// `F32`: the pre-quantization behavior of every save API.
    fn default() -> Self {
        QuantMode::F32
    }
}

/// Exact size in bytes of [`encode_with`]'s output for a given model
/// and mode: header, layer table, and 4 / 2 / 1 bytes per parameter.
/// The i8 form pays 8 extra bytes per layer (one f32 scale each for the
/// weight matrix and the bias vector). Whole-sketch containers (NSK2 in
/// `neurosketch::persist`) size their buffers and their
/// `encoded_len` with it.
pub fn encoded_len_with(mlp: &Mlp, mode: QuantMode) -> usize {
    let header = 8 + mlp.layers().len() * 9;
    match mode {
        QuantMode::F32 => header + mlp.param_count() * 4,
        QuantMode::F16 => header + mlp.param_count() * 2,
        QuantMode::I8 => header + mlp.layers().len() * 8 + mlp.param_count(),
    }
}

/// Encode an [`Mlp`] with the given parameter encoding.
pub fn encode_with(mlp: &Mlp, mode: QuantMode) -> Bytes {
    let mut buf = BytesMut::with_capacity(encoded_len_with(mlp, mode));
    buf.put_u32_le(mode.magic());
    buf.put_u32_le(mlp.layers().len() as u32);
    for layer in mlp.layers() {
        buf.put_u32_le(layer.out_dim() as u32);
        buf.put_u32_le(layer.in_dim() as u32);
        buf.put_u8(match layer.activation {
            Activation::Relu => 0,
            Activation::Identity => 1,
        });
    }
    for layer in mlp.layers() {
        let w = layer.weights.as_slice();
        let b = &layer.biases;
        match mode {
            QuantMode::F32 => {
                for v in w {
                    buf.put_f32_le(*v as f32);
                }
                for v in b {
                    buf.put_f32_le(*v as f32);
                }
            }
            QuantMode::F16 => {
                for v in w {
                    buf.put_u16_le(f32_to_f16_bits(*v as f32));
                }
                for v in b {
                    buf.put_u16_le(f32_to_f16_bits(*v as f32));
                }
            }
            QuantMode::I8 => {
                let ws = pow2_scale(max_abs_f32(w.iter().copied()));
                buf.put_f32_le(ws);
                for v in w {
                    buf.put_u8(i8_quant(*v as f32, ws) as u8);
                }
                let bs = pow2_scale(max_abs_f32(b.iter().copied()));
                buf.put_f32_le(bs);
                for v in b {
                    buf.put_u8(i8_quant(*v as f32, bs) as u8);
                }
            }
        }
    }
    buf.freeze()
}

/// Decode a model blob of any [`QuantMode`], dispatching on the magic.
/// Returns the deterministic dequantized model and the mode it was
/// stored in; re-encoding with that mode reproduces the input bytes.
pub fn decode_any(mut data: Bytes) -> Result<(Mlp, QuantMode), NnError> {
    let fail = |m: &str| NnError::Serde(m.to_string());
    if data.remaining() < 4 {
        return Err(fail("truncated header"));
    }
    let mode = match data.get_u32_le() {
        MAGIC => QuantMode::F32,
        MAGIC_F16 => QuantMode::F16,
        MAGIC_I8 => QuantMode::I8,
        _ => return Err(fail("bad magic")),
    };
    Ok((decode_body(data, mode)?, mode))
}

/// Decode everything after the magic word: the shared layer table, then
/// the mode's parameter sections.
fn decode_body(mut data: Bytes, mode: QuantMode) -> Result<Mlp, NnError> {
    let fail = |m: &str| NnError::Serde(m.to_string());
    if data.remaining() < 4 {
        return Err(fail("truncated header"));
    }
    let n_layers = data.get_u32_le() as usize;
    if n_layers == 0 || n_layers > 1024 {
        return Err(fail("implausible layer count"));
    }
    let mut shapes = Vec::with_capacity(n_layers);
    for _ in 0..n_layers {
        if data.remaining() < 9 {
            return Err(fail("truncated layer table"));
        }
        let out = data.get_u32_le() as usize;
        let inp = data.get_u32_le() as usize;
        let act = match data.get_u8() {
            0 => Activation::Relu,
            1 => Activation::Identity,
            _ => return Err(fail("unknown activation tag")),
        };
        if out == 0 || inp == 0 {
            return Err(fail("zero-sized layer"));
        }
        shapes.push((out, inp, act));
    }
    let mut layers = Vec::with_capacity(n_layers);
    for (out, inp, act) in shapes {
        // Checked size math: a corrupt layer table can declare dimensions
        // whose parameter-byte count overflows `usize` multiplication —
        // wrapping here would defeat the truncation check below and
        // attempt an enormous allocation. Overflow means the declared
        // layer cannot possibly fit in any real buffer: typed error.
        let params = (out as u64)
            .checked_mul(inp as u64)
            .and_then(|wb| wb.checked_add(out as u64))
            .ok_or_else(|| fail("layer dimensions overflow"))?;
        let need = match mode {
            QuantMode::F32 => params.checked_mul(4),
            QuantMode::F16 => params.checked_mul(2),
            QuantMode::I8 => params.checked_add(8),
        }
        .ok_or_else(|| fail("layer dimensions overflow"))?;
        if (data.remaining() as u64) < need {
            return Err(fail("truncated parameters"));
        }
        let (w, b) = match mode {
            QuantMode::F32 => {
                let w = (0..out * inp).map(|_| data.get_f32_le() as f64).collect();
                let b = (0..out).map(|_| data.get_f32_le() as f64).collect();
                (w, b)
            }
            QuantMode::F16 => {
                let mut read = |n: usize| -> Result<Vec<f64>, NnError> {
                    (0..n)
                        .map(|_| {
                            let bits = data.get_u16_le();
                            if bits & 0x7C00 == 0x7C00 {
                                // Exponent all-ones: NaN or infinity. The
                                // encoder saturates, so this is corruption.
                                return Err(fail("non-finite f16 parameter"));
                            }
                            Ok(f16_bits_to_f32(bits) as f64)
                        })
                        .collect()
                };
                let w = read(out * inp)?;
                let b = read(out)?;
                (w, b)
            }
            QuantMode::I8 => {
                let mut read = |n: usize| -> Result<Vec<f64>, NnError> {
                    let scale = data.get_f32_le();
                    if scale != 0.0 && !is_pow2_f32(scale) {
                        return Err(fail("i8 scale is not a power of two"));
                    }
                    let mut vals = Vec::with_capacity(n);
                    for _ in 0..n {
                        let q = data.get_u8() as i8;
                        // A zero scale means the tensor was all-zero;
                        // nonzero quantized values under it would silently
                        // decode to zeros that re-encode differently —
                        // corruption. Check the raw byte: `q * 0.0` is
                        // `±0.0` and would slip past a value test.
                        if scale == 0.0 && q != 0 {
                            return Err(fail("zero i8 scale with nonzero values"));
                        }
                        vals.push((q as f32 * scale) as f64);
                    }
                    Ok(vals)
                };
                let w = read(out * inp)?;
                let b = read(out)?;
                (w, b)
            }
        };
        layers.push(Dense {
            weights: Matrix::from_vec(out, inp, w),
            biases: b,
            activation: act,
        });
    }
    Mlp::from_layers(layers)
}

// ------------------------------------------------------------ primitives

/// f32 → IEEE 754 binary16 bits, round-to-nearest-even, **saturating**
/// at ±65504 instead of overflowing to infinity — every value the
/// encoder writes decodes to a finite f32, and values already exactly
/// representable in binary16 (e.g. anything that came back from
/// [`f16_bits_to_f32`]) map to their own bit pattern, which is what
/// makes the f16 round trip byte-idempotent.
fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let abs = bits & 0x7FFF_FFFF;
    if abs >= 0x7F80_0000 {
        // NaN propagates as a half NaN (decode treats it as corruption);
        // infinity saturates like any other out-of-range magnitude.
        return if abs > 0x7F80_0000 {
            sign | 0x7E00
        } else {
            sign | 0x7BFF
        };
    }
    if abs >= 0x4780_0000 {
        // |x| >= 65536: past the half range before rounding — saturate.
        return sign | 0x7BFF;
    }
    if abs >= 0x3880_0000 {
        // Normal half (|x| >= 2^-14). Round in the f32 bit domain: add
        // (half-ulp - 1) plus the result's would-be LSB, then truncate —
        // ties go to even, exact values pass through untouched.
        let rounded = abs + 0x0FFF + ((abs >> 13) & 1);
        let h = ((rounded - 0x3800_0000) >> 13) as u16;
        if h >= 0x7C00 {
            // Rounded up into the infinity encoding: saturate.
            return sign | 0x7BFF;
        }
        sign | h
    } else {
        // Subnormal half: the value is h·2^-24 for h in 0..1024. Shift
        // the 24-bit significand down with round-to-nearest-even; a
        // carry out of h == 1024 lands exactly on the smallest normal.
        let e = (abs >> 23) as i32;
        if e < 102 {
            // |x| < 2^-25: rounds to (signed) zero.
            return sign;
        }
        let man = (abs & 0x007F_FFFF) | 0x0080_0000;
        let shift = (126 - e) as u32;
        let floor = man >> shift;
        let rem = man & ((1 << shift) - 1);
        let half = 1 << (shift - 1);
        let h = if rem > half || (rem == half && floor & 1 == 1) {
            floor + 1
        } else {
            floor
        };
        sign | h as u16
    }
}

/// IEEE 754 binary16 bits → the exactly-equal f32. Infinities and NaNs
/// (exponent field 31) are mapped too, but the decoder rejects those
/// bit patterns before calling this.
fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = if h & 0x8000 != 0 { -1.0f32 } else { 1.0 };
    let exp = ((h >> 10) & 0x1F) as u32;
    let man = (h & 0x3FF) as f32;
    let mag = if exp == 0 {
        // Subnormal: man · 2^-24.
        man * f32::from_bits(103 << 23)
    } else if exp == 31 {
        if h & 0x3FF != 0 {
            f32::NAN
        } else {
            f32::INFINITY
        }
    } else {
        // Normal: (1024 + man) · 2^(exp - 25); both factors exact.
        (1024.0 + man) * f32::from_bits((102 + exp) << 23)
    };
    sign * mag
}

/// The i8 scale for a tensor with the given max magnitude: the minimal
/// power of two `p` with `max_abs < 127.5·p` (zero for an all-zero
/// tensor). Minimality makes the scale a pure function of the max
/// magnitude — and since the dequantized max is `round(max/p)·p` with
/// `round(max/p)` in `[64, 127]`, re-deriving the scale from the
/// dequantized tensor lands on the same `p`: the i8 round trip is
/// byte-idempotent.
fn pow2_scale(max_abs: f32) -> f32 {
    if max_abs == 0.0 {
        return 0.0;
    }
    let mut p = 1.0f32;
    while max_abs / p >= 127.5 {
        p *= 2.0;
    }
    while p * 0.5 > 0.0 && max_abs / (p * 0.5) < 127.5 {
        p *= 0.5;
    }
    p
}

/// Largest magnitude in the tensor, in f32 (the domain quantization
/// operates in).
fn max_abs_f32(vals: impl Iterator<Item = f64>) -> f32 {
    vals.fold(0.0f32, |m, v| m.max((v as f32).abs()))
}

/// Quantize one value against a [`pow2_scale`]. `v/p` is exact (power-
/// of-two scaling) and below 127.5 in magnitude by construction, so the
/// result always fits.
fn i8_quant(v: f32, p: f32) -> i8 {
    if p == 0.0 {
        0
    } else {
        (v / p).round() as i8
    }
}

/// Whether `s` is a positive, finite power of two — the only scales the
/// i8 encoder emits (subnormal powers of two included).
fn is_pow2_f32(s: f32) -> bool {
    if s.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) || !s.is_finite() {
        return false;
    }
    let bits = s.to_bits();
    let man = bits & 0x007F_FFFF;
    if bits >> 23 == 0 {
        man.count_ones() == 1
    } else {
        man == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_structure_and_f32_values() {
        let mlp = Mlp::new(&[3, 8, 8, 1], 5);
        let blob = encode_with(&mlp, QuantMode::F32);
        // Header + layer table + params.
        assert_eq!(blob.len(), 8 + 3 * 9 + mlp.param_count() * 4);
        let (back, mode) = decode_any(blob).unwrap();
        assert_eq!(mode, QuantMode::F32);
        assert_eq!(back.input_dim(), 3);
        assert_eq!(back.param_count(), mlp.param_count());
        // Outputs agree to f32 precision.
        for i in 0..20 {
            let x = [i as f64 * 0.05, 0.3, 0.7];
            let a = mlp.predict(&x);
            let b = back.predict(&x);
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn binary_is_much_smaller_than_json() {
        let mlp = Mlp::new(&[4, 60, 30, 30, 1], 0);
        let json = serde_json::to_string(&mlp).unwrap().len();
        let bin = encode_with(&mlp, QuantMode::F32).len();
        assert!(bin * 3 < json, "bin {bin} json {json}");
        // Within 1% of the paper's 4-bytes-per-parameter accounting.
        assert!(bin < mlp.storage_bytes() + 64);
    }

    #[test]
    fn rejects_corrupt_input() {
        let mlp = Mlp::new(&[2, 4, 1], 1);
        let blob = encode_with(&mlp, QuantMode::F32);
        assert!(decode_any(Bytes::from_static(b"nope")).is_err());
        let mut bad_magic = blob.to_vec();
        bad_magic[0] ^= 0xFF;
        assert!(decode_any(Bytes::from(bad_magic)).is_err());
        let truncated = blob.slice(0..blob.len() - 10);
        assert!(decode_any(truncated).is_err());
    }

    #[test]
    fn encoded_len_matches_encode() {
        for sizes in [&[2usize, 4, 1][..], &[4, 60, 30, 30, 1], &[1, 1]] {
            let mlp = Mlp::new(sizes, 3);
            for mode in QuantMode::ALL {
                assert_eq!(
                    encode_with(&mlp, mode).len(),
                    encoded_len_with(&mlp, mode),
                    "{sizes:?} {mode:?}"
                );
            }
        }
    }

    #[test]
    fn rejects_overflowing_layer_dims_without_panicking() {
        // Hand-craft a header whose single layer declares u32::MAX x
        // u32::MAX parameters: the byte count overflows 64-bit math when
        // multiplied out naively. Must yield a typed error, not a panic
        // or an attempted allocation.
        for magic in [MAGIC, MAGIC_F16] {
            let mut buf = BytesMut::with_capacity(17);
            buf.put_u32_le(magic);
            buf.put_u32_le(1); // one layer
            buf.put_u32_le(u32::MAX); // out
            buf.put_u32_le(u32::MAX); // in
            buf.put_u8(0); // relu
            let err = decode_any(buf.freeze()).unwrap_err();
            let msg = format!("{err}");
            assert!(msg.contains("overflow"), "unexpected error: {msg}");
        }
    }

    #[test]
    fn decoded_roundtrips_again_identically() {
        // After one quantizing round trip, further round trips are
        // lossless — for every mode, and at the byte level.
        let mlp = Mlp::new(&[2, 6, 1], 9);
        for mode in QuantMode::ALL {
            let blob = encode_with(&mlp, mode);
            let (once, m) = decode_any(blob.clone()).unwrap();
            assert_eq!(m, mode);
            let again = encode_with(&once, mode);
            assert_eq!(blob.as_ref(), again.as_ref(), "{mode:?}");
            let (twice, _) = decode_any(again).unwrap();
            assert_eq!(once, twice, "{mode:?}");
        }
    }

    #[test]
    fn f16_bits_roundtrip_exhaustively() {
        // Every finite binary16 value decodes to an f32 that encodes
        // back to the same bits — the idempotence the format relies on.
        for h in 0..=u16::MAX {
            if h & 0x7C00 == 0x7C00 {
                continue; // Inf/NaN: rejected by the decoder.
            }
            let v = f16_bits_to_f32(h);
            assert!(v.is_finite());
            assert_eq!(f32_to_f16_bits(v), h, "bits {h:#06x} value {v}");
        }
    }

    #[test]
    fn f16_rounds_to_nearest_even_and_saturates() {
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(1.0)), 1.0);
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(-2.5)), -2.5);
        // 1 + 2^-11 is exactly halfway between 1.0 and the next half up
        // (1 + 2^-10): ties to even keeps 1.0.
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(1.0 + 2f32.powi(-11))), 1.0);
        // Just above the tie rounds up.
        let up = f16_bits_to_f32(f32_to_f16_bits(1.0 + 1.5 * 2f32.powi(-11)));
        assert_eq!(up, 1.0 + 2f32.powi(-10));
        // Saturation: everything past 65504 clamps to 65504, not Inf.
        for x in [65504.0f32, 65520.0, 1e9, f32::MAX, f32::INFINITY] {
            assert_eq!(f16_bits_to_f32(f32_to_f16_bits(x)), 65504.0, "{x}");
            assert_eq!(f16_bits_to_f32(f32_to_f16_bits(-x)), -65504.0, "{x}");
        }
        // Subnormal range survives; below 2^-25 rounds to zero.
        assert_eq!(
            f16_bits_to_f32(f32_to_f16_bits(2f32.powi(-24))),
            2f32.powi(-24)
        );
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(2f32.powi(-26))), 0.0);
    }

    #[test]
    fn pow2_scale_is_minimal_and_stable() {
        for m in [
            1e-6f32, 0.03, 0.5, 1.0, 63.74, 63.75, 127.4, 127.5, 500.0, 7e4,
        ] {
            let p = pow2_scale(m);
            assert!(is_pow2_f32(p), "{m}: scale {p} not a power of two");
            assert!(m / p < 127.5, "{m}: scale {p} too small");
            // Minimal: halving it would overflow the i8 range.
            assert!(m / (p * 0.5) >= 127.5, "{m}: scale {p} not minimal");
            // The quantized max dequantizes to a magnitude that re-derives
            // the same scale — the idempotence argument.
            let deq = i8_quant(m, p) as f32 * p;
            assert_eq!(pow2_scale(deq.abs()), p, "{m}");
        }
        assert_eq!(pow2_scale(0.0), 0.0);
    }

    #[test]
    fn i8_blob_rejects_bad_scales_and_zero_scale_payloads() {
        let mlp = Mlp::new(&[2, 3, 1], 4);
        let blob = encode_with(&mlp, QuantMode::I8).to_vec();
        // First tensor scale sits right after the 8-byte header and the
        // two 9-byte layer rows.
        let scale_at = 8 + 2 * 9;
        let mut bad = blob.clone();
        bad[scale_at..scale_at + 4].copy_from_slice(&3.0f32.to_le_bytes());
        let err = decode_any(Bytes::from(bad)).unwrap_err();
        assert!(format!("{err}").contains("power of two"), "{err}");
        let mut nan = blob.clone();
        nan[scale_at..scale_at + 4].copy_from_slice(&f32::NAN.to_le_bytes());
        assert!(decode_any(Bytes::from(nan)).is_err());
        // Zero scale over nonzero quantized values: the values would
        // silently decode to zeros — typed refusal instead.
        let mut zeroed = blob;
        zeroed[scale_at..scale_at + 4].copy_from_slice(&0.0f32.to_le_bytes());
        let err = decode_any(Bytes::from(zeroed)).unwrap_err();
        assert!(format!("{err}").contains("zero i8 scale"), "{err}");
    }

    #[test]
    fn f16_blob_rejects_non_finite_params() {
        let mlp = Mlp::new(&[2, 3, 1], 4);
        let blob = encode_with(&mlp, QuantMode::F16).to_vec();
        let param_at = 8 + 2 * 9;
        let mut bad = blob;
        bad[param_at..param_at + 2].copy_from_slice(&0x7C00u16.to_le_bytes());
        let err = decode_any(Bytes::from(bad)).unwrap_err();
        assert!(format!("{err}").contains("non-finite"), "{err}");
    }

    #[test]
    fn quantized_sizes_hit_the_paper_ratios() {
        // The paper-default architecture: i8 ≤ 0.30x f32, f16 ≤ 0.55x.
        let mlp = Mlp::new(&[2, 60, 30, 30, 1], 0);
        let f32_len = encoded_len_with(&mlp, QuantMode::F32);
        let f16_len = encoded_len_with(&mlp, QuantMode::F16);
        let i8_len = encoded_len_with(&mlp, QuantMode::I8);
        assert!(
            (i8_len as f64) <= 0.30 * f32_len as f64,
            "i8 {i8_len} f32 {f32_len}"
        );
        assert!(
            (f16_len as f64) <= 0.55 * f32_len as f64,
            "f16 {f16_len} f32 {f32_len}"
        );
    }

    #[test]
    fn truncated_quantized_blobs_are_typed() {
        let mlp = Mlp::new(&[3, 8, 1], 2);
        for mode in [QuantMode::F16, QuantMode::I8] {
            let blob = encode_with(&mlp, mode);
            for cut in [blob.len() - 1, blob.len() / 2, 9, 4] {
                assert!(
                    decode_any(blob.slice(0..cut)).is_err(),
                    "{mode:?} cut {cut}"
                );
            }
        }
    }
}
