//! Adaptive binary range coding (LZMA-style).
//!
//! A carry-less binary range coder with 12-bit adaptive probabilities
//! ([`BitModel`]) and a bit-tree helper for small alphabets. No codec
//! calls it yet: it is the candidate entropy stage for SZ's quantized
//! residuals and the archive's delta frames, to be kept only if it wins
//! end to end against DEFLATE there.

use crate::Error;

/// Probability precision: 12 bits (0..4096).
const PROB_BITS: u32 = 12;
const PROB_ONE: u32 = 1 << PROB_BITS;
/// Adaptation shift: higher = slower adaptation.
const ADAPT_SHIFT: u32 = 5;
const TOP: u32 = 1 << 24;

/// An adaptive probability of the next bit being 0.
#[derive(Debug, Clone, Copy)]
pub struct BitModel(u16);

impl Default for BitModel {
    fn default() -> Self {
        BitModel((PROB_ONE / 2) as u16)
    }
}

impl BitModel {
    /// Fresh model at p(0) = 1/2.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn update(&mut self, bit: bool) {
        let p = self.0 as u32;
        if bit {
            self.0 = (p - (p >> ADAPT_SHIFT)) as u16;
        } else {
            self.0 = (p + ((PROB_ONE - p) >> ADAPT_SHIFT)) as u16;
        }
    }
}

/// Range encoder writing to an internal byte buffer.
#[derive(Debug)]
pub struct RangeEncoder {
    low: u64,
    range: u32,
    cache: u8,
    cache_size: u64,
    out: Vec<u8>,
}

impl Default for RangeEncoder {
    fn default() -> Self {
        Self::new()
    }
}

impl RangeEncoder {
    /// New empty encoder.
    pub fn new() -> Self {
        RangeEncoder { low: 0, range: u32::MAX, cache: 0, cache_size: 1, out: Vec::new() }
    }

    #[inline]
    fn shift_low(&mut self) {
        if self.low < 0xFF00_0000u64 || self.low > u32::MAX as u64 {
            let carry = (self.low >> 32) as u8;
            let mut first = true;
            while self.cache_size > 0 {
                let byte = if first {
                    self.cache.wrapping_add(carry)
                } else {
                    0xFFu8.wrapping_add(carry)
                };
                self.out.push(byte);
                first = false;
                self.cache_size -= 1;
            }
            self.cache = ((self.low >> 24) & 0xFF) as u8;
        }
        self.cache_size += 1;
        self.low = (self.low << 8) & 0xFFFF_FFFF;
    }

    /// Encode one bit with an adaptive model.
    #[inline]
    pub fn encode_bit(&mut self, model: &mut BitModel, bit: bool) {
        let bound = (self.range >> PROB_BITS) * model.0 as u32;
        if !bit {
            self.range = bound;
        } else {
            self.low += bound as u64;
            self.range -= bound;
        }
        model.update(bit);
        while self.range < TOP {
            self.range <<= 8;
            self.shift_low();
        }
    }

    /// Encode `n` raw bits (MSB first) at probability 1/2 without a model.
    pub fn encode_direct(&mut self, value: u64, n: u32) {
        for i in (0..n).rev() {
            self.range >>= 1;
            let bit = (value >> i) & 1;
            if bit == 1 {
                self.low += self.range as u64;
            }
            while self.range < TOP {
                self.range <<= 8;
                self.shift_low();
            }
        }
    }

    /// Flush and return the coded bytes.
    pub fn finish(mut self) -> Vec<u8> {
        for _ in 0..5 {
            self.shift_low();
        }
        self.out
    }
}

/// Range decoder over a byte slice.
#[derive(Debug)]
pub struct RangeDecoder<'a> {
    data: &'a [u8],
    pos: usize,
    code: u32,
    range: u32,
}

impl<'a> RangeDecoder<'a> {
    /// Initialize from encoder output.
    pub fn new(data: &'a [u8]) -> Result<Self, Error> {
        let mut d = RangeDecoder { data, pos: 1, code: 0, range: u32::MAX };
        for _ in 0..4 {
            d.code = (d.code << 8) | d.next_byte()? as u32;
        }
        Ok(d)
    }

    #[inline]
    fn next_byte(&mut self) -> Result<u8, Error> {
        let b = self.data.get(self.pos).copied();
        self.pos += 1;
        // Reading past the end returns zero padding: the encoder's final
        // flush bytes may be truncated by containers that store exact
        // logical lengths; trailing zeros decode identically.
        Ok(b.unwrap_or(0))
    }

    /// Decode one bit with an adaptive model.
    #[inline]
    pub fn decode_bit(&mut self, model: &mut BitModel) -> Result<bool, Error> {
        let bound = (self.range >> PROB_BITS) * model.0 as u32;
        let bit = if self.code < bound {
            self.range = bound;
            false
        } else {
            self.code -= bound;
            self.range -= bound;
            true
        };
        model.update(bit);
        while self.range < TOP {
            self.range <<= 8;
            self.code = (self.code << 8) | self.next_byte()? as u32;
        }
        Ok(bit)
    }

    /// Decode `n` raw bits (MSB first).
    pub fn decode_direct(&mut self, n: u32) -> Result<u64, Error> {
        let mut value = 0u64;
        for _ in 0..n {
            self.range >>= 1;
            let bit = if self.code >= self.range {
                self.code -= self.range;
                1u64
            } else {
                0u64
            };
            value = (value << 1) | bit;
            while self.range < TOP {
                self.range <<= 8;
                self.code = (self.code << 8) | self.next_byte()? as u32;
            }
        }
        Ok(value)
    }
}

/// A bit-tree over `2^bits` symbols: each internal node carries a
/// [`BitModel`]; frequent symbols cost well under `bits` bits.
#[derive(Debug, Clone)]
pub struct BitTree {
    bits: u32,
    models: Vec<BitModel>,
}

impl BitTree {
    /// Tree over `2^bits` symbols.
    pub fn new(bits: u32) -> Self {
        assert!((1..=16).contains(&bits));
        BitTree { bits, models: vec![BitModel::new(); 1 << bits] }
    }

    /// Encode `symbol < 2^bits`.
    pub fn encode(&mut self, enc: &mut RangeEncoder, symbol: u32) {
        debug_assert!(symbol < (1 << self.bits));
        let mut node = 1usize;
        for i in (0..self.bits).rev() {
            let bit = (symbol >> i) & 1 == 1;
            enc.encode_bit(&mut self.models[node], bit);
            node = (node << 1) | bit as usize;
        }
    }

    /// Decode a symbol.
    pub fn decode(&mut self, dec: &mut RangeDecoder<'_>) -> Result<u32, Error> {
        let mut node = 1usize;
        for _ in 0..self.bits {
            let bit = dec.decode_bit(&mut self.models[node])?;
            node = (node << 1) | bit as usize;
        }
        Ok(node as u32 - (1 << self.bits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_model_roundtrip_biased_stream() {
        let bits: Vec<bool> = (0..10_000).map(|i| i % 17 == 0).collect();
        let mut enc = RangeEncoder::new();
        let mut m = BitModel::new();
        for &b in &bits {
            enc.encode_bit(&mut m, b);
        }
        let bytes = enc.finish();
        // Highly biased stream compresses far below 1 bit/symbol.
        assert!(bytes.len() < 10_000 / 8 / 2, "{} bytes", bytes.len());
        let mut dec = RangeDecoder::new(&bytes).unwrap();
        let mut m = BitModel::new();
        for &b in &bits {
            assert_eq!(dec.decode_bit(&mut m).unwrap(), b);
        }
    }

    #[test]
    fn direct_bits_roundtrip() {
        let values: Vec<(u64, u32)> =
            vec![(0, 1), (1, 1), (5, 3), (0xDEAD, 16), (0xFFFF_FFFF, 32), (12345, 20)];
        let mut enc = RangeEncoder::new();
        for &(v, n) in &values {
            enc.encode_direct(v, n);
        }
        let bytes = enc.finish();
        let mut dec = RangeDecoder::new(&bytes).unwrap();
        for &(v, n) in &values {
            assert_eq!(dec.decode_direct(n).unwrap(), v, "{v}/{n}");
        }
    }

    #[test]
    fn mixed_model_and_direct() {
        let mut enc = RangeEncoder::new();
        let mut m1 = BitModel::new();
        let mut m2 = BitModel::new();
        for i in 0..1000 {
            enc.encode_bit(&mut m1, i % 3 == 0);
            enc.encode_direct((i % 7) as u64, 3);
            enc.encode_bit(&mut m2, i % 2 == 0);
        }
        let bytes = enc.finish();
        let mut dec = RangeDecoder::new(&bytes).unwrap();
        let mut m1 = BitModel::new();
        let mut m2 = BitModel::new();
        for i in 0..1000 {
            assert_eq!(dec.decode_bit(&mut m1).unwrap(), i % 3 == 0);
            assert_eq!(dec.decode_direct(3).unwrap(), (i % 7) as u64);
            assert_eq!(dec.decode_bit(&mut m2).unwrap(), i % 2 == 0);
        }
    }

    #[test]
    fn bit_tree_roundtrip_skewed_alphabet() {
        let symbols: Vec<u32> = (0..20_000).map(|i: u32| (i * i) % 33 % 8).collect();
        let mut enc = RangeEncoder::new();
        let mut tree = BitTree::new(3);
        for &s in &symbols {
            tree.encode(&mut enc, s);
        }
        let bytes = enc.finish();
        let mut dec = RangeDecoder::new(&bytes).unwrap();
        let mut tree = BitTree::new(3);
        for &s in &symbols {
            assert_eq!(tree.decode(&mut dec).unwrap(), s);
        }
    }

    #[test]
    fn adaptation_beats_static_on_drifting_source() {
        // First half mostly zeros, second half mostly ones: the adaptive
        // model follows, so total size stays well under 1 bit/symbol.
        let bits: Vec<bool> = (0..20_000).map(|i| {
            if i < 10_000 { i % 20 == 0 } else { i % 20 != 0 }
        }).collect();
        let mut enc = RangeEncoder::new();
        let mut m = BitModel::new();
        for &b in &bits {
            enc.encode_bit(&mut m, b);
        }
        let bytes = enc.finish();
        assert!(bytes.len() * 8 < 20_000 / 2, "{} bytes", bytes.len());
        let mut dec = RangeDecoder::new(&bytes).unwrap();
        let mut m = BitModel::new();
        for &b in &bits {
            assert_eq!(dec.decode_bit(&mut m).unwrap(), b);
        }
    }

    #[test]
    fn empty_stream_decodes_nothing() {
        let enc = RangeEncoder::new();
        let bytes = enc.finish();
        assert!(RangeDecoder::new(&bytes).is_ok());
    }
}
