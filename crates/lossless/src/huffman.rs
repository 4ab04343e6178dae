//! Canonical Huffman coding with length-limited codes.
//!
//! Code lengths are derived from symbol frequencies with the package-merge
//! algorithm (optimal under a maximum-length constraint), then assigned
//! canonically so only the length vector needs to be transmitted. Decoding
//! uses a flat lookup table over [`MAX_CODE_LEN`] bits.

use crate::bitio::{BitReader, BitWriter};
use crate::Error;

/// Maximum code length; 15 matches DEFLATE and keeps the decode table at
/// 32,768 entries.
pub const MAX_CODE_LEN: u32 = 15;

/// Compute length-limited Huffman code lengths for `freqs` (zero frequency →
/// zero length, i.e. symbol absent). Lengths never exceed `max_len`.
pub fn code_lengths(freqs: &[u64], max_len: u32) -> Vec<u32> {
    assert!((1..=MAX_CODE_LEN).contains(&max_len));
    let n = freqs.len();
    let active: Vec<usize> = (0..n).filter(|&i| freqs[i] > 0).collect();
    let mut lengths = vec![0u32; n];
    match active.len() {
        0 => return lengths,
        1 => {
            // A single symbol still needs a 1-bit code to be decodable.
            lengths[active[0]] = 1;
            return lengths;
        }
        _ => {}
    }
    assert!(
        (1usize << max_len) >= active.len(),
        "alphabet of {} symbols cannot fit in {max_len}-bit codes",
        active.len()
    );

    // Package-merge over the active symbols sorted once by frequency (the
    // stable sort keeps ties in symbol order). Each of the `max_len` levels
    // is a linear merge of the sorted leaves with the previous level's pair
    // sums (items 2k and 2k+1), taking the leaf first on a tie: the order a
    // stable sort of [leaves, pairs] gives. A level keeps one is-package
    // flag per item; only its weights feed the next level.
    let mut leaves = active;
    leaves.sort_by_key(|&i| freqs[i]);
    let leaf_w: Vec<u64> = leaves.iter().map(|&i| freqs[i]).collect();
    let mut weights: Vec<u64> = Vec::new();
    let mut levels: Vec<Vec<bool>> = Vec::with_capacity(max_len as usize);
    for _level in 0..max_len {
        let pairs: Vec<u64> = weights.chunks_exact(2).map(|p| p[0] + p[1]).collect();
        let mut merged = Vec::with_capacity(leaf_w.len() + pairs.len());
        let mut is_package = Vec::with_capacity(leaf_w.len() + pairs.len());
        let (mut a, mut b) = (0, 0);
        while a < leaf_w.len() || b < pairs.len() {
            let leaf = b == pairs.len() || (a < leaf_w.len() && leaf_w[a] <= pairs[b]);
            if leaf {
                merged.push(leaf_w[a]);
                a += 1;
            } else {
                merged.push(pairs[b]);
                b += 1;
            }
            is_package.push(!leaf);
        }
        weights = merged;
        levels.push(is_package);
    }

    // Count lengths top-down from the cheapest 2(n-1) items of the last
    // level. The first m items of a level are a prefix of the sorted leaves
    // plus the level's first p packages: each of those leaves gains one bit,
    // and the p packages are the first 2p items one level down.
    let mut m = 2 * (leaves.len() - 1);
    for is_package in levels.iter().rev() {
        let packages = is_package[..m].iter().filter(|&&p| p).count();
        for &sym in &leaves[..m - packages] {
            lengths[sym] += 1;
        }
        m = 2 * packages;
    }
    debug_assert!(lengths.iter().all(|&l| l <= max_len));
    lengths
}

/// Assign canonical codes to `lengths`. Returns `codes[i]` = bit-reversed
/// code ready for LSB-first writing (length `lengths[i]`).
pub fn canonical_codes(lengths: &[u32]) -> Vec<u32> {
    let max = lengths.iter().copied().max().unwrap_or(0);
    let mut bl_count = vec![0u32; (max + 1) as usize];
    for &l in lengths {
        if l > 0 {
            bl_count[l as usize] += 1;
        }
    }
    let mut next_code = vec![0u32; (max + 2) as usize];
    let mut code = 0u32;
    for bits in 1..=max {
        code = (code + bl_count[(bits - 1) as usize]) << 1;
        next_code[bits as usize] = code;
    }
    lengths
        .iter()
        .map(|&l| {
            if l == 0 {
                0
            } else {
                let c = next_code[l as usize];
                next_code[l as usize] += 1;
                c.reverse_bits() >> (32 - l)
            }
        })
        .collect()
}

/// Encoder: canonical codes + lengths for an alphabet.
#[derive(Debug, Clone)]
pub struct Encoder {
    codes: Vec<u32>,
    lengths: Vec<u32>,
}

impl Encoder {
    /// Build an encoder from symbol frequencies.
    pub fn from_freqs(freqs: &[u64], max_len: u32) -> Self {
        let lengths = code_lengths(freqs, max_len);
        let codes = canonical_codes(&lengths);
        Encoder { codes, lengths }
    }

    /// Build from explicit code lengths (as read from a stream header).
    pub fn from_lengths(lengths: &[u32]) -> Self {
        let codes = canonical_codes(lengths);
        Encoder { codes, lengths: lengths.to_vec() }
    }

    /// The code lengths (what a container format serializes).
    pub fn lengths(&self) -> &[u32] {
        &self.lengths
    }

    /// Emit `symbol`'s code. Panics if the symbol has no code.
    pub fn write_symbol(&self, w: &mut BitWriter, symbol: usize) {
        let len = self.lengths[symbol];
        debug_assert!(len > 0, "symbol {symbol} has no code");
        w.write_bits(self.codes[symbol] as u64, len);
    }

    /// Length in bits of `symbol`'s code (0 if absent).
    pub fn symbol_len(&self, symbol: usize) -> u32 {
        self.lengths[symbol]
    }

    /// The `(code, length)` pair for `symbol`, with the code already
    /// bit-reversed for LSB-first writing. Lets callers pack a symbol
    /// together with its extra bits into a single bit-write.
    #[inline]
    pub fn code(&self, symbol: usize) -> (u32, u32) {
        (self.codes[symbol], self.lengths[symbol])
    }
}

/// Table-driven decoder for canonical codes.
#[derive(Debug)]
pub struct Decoder {
    /// `table[bits] = (symbol, code_len)`; index is the next `max` stream
    /// bits (LSB-first).
    table: Vec<(u16, u8)>,
    max: u32,
}

impl Decoder {
    /// Build a decoder from code lengths. Returns an error for
    /// over-subscribed (invalid) codes; incomplete codes are accepted and
    /// undefined entries decode to an error at read time.
    pub fn from_lengths(lengths: &[u32]) -> Result<Self, Error> {
        let max = lengths.iter().copied().max().unwrap_or(0);
        if max == 0 {
            return Ok(Decoder { table: Vec::new(), max: 0 });
        }
        if max > MAX_CODE_LEN {
            return Err(Error::Corrupt("code length exceeds maximum"));
        }
        // Kraft check for over-subscription.
        let kraft: u64 = lengths
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 1u64 << (MAX_CODE_LEN - l))
            .sum();
        if kraft > 1u64 << MAX_CODE_LEN {
            return Err(Error::Corrupt("over-subscribed Huffman code"));
        }
        let codes = canonical_codes(lengths);
        let mut table = vec![(u16::MAX, 0u8); 1usize << max];
        for (sym, (&len, &code)) in lengths.iter().zip(&codes).enumerate() {
            if len == 0 {
                continue;
            }
            // The code occupies every table slot whose low `len` bits equal
            // `code` (code is already bit-reversed for LSB-first order).
            let step = 1usize << len;
            let mut idx = code as usize;
            while idx < table.len() {
                table[idx] = (sym as u16, len as u8);
                idx += step;
            }
        }
        Ok(Decoder { table, max })
    }

    /// Decode one symbol.
    pub fn read_symbol(&self, r: &mut BitReader<'_>) -> Result<usize, Error> {
        if self.max == 0 {
            return Err(Error::Corrupt("empty Huffman alphabet"));
        }
        // Peek up to `max` bits; near stream end fewer may remain, so fall
        // back to bit-by-bit narrowing.
        let avail = self.max;
        match r.read_bits(avail) {
            Ok(bits) => {
                let (sym, len) = self.table[bits as usize];
                if sym == u16::MAX {
                    return Err(Error::Corrupt("invalid Huffman code"));
                }
                // Push back the unconsumed bits by re-reading: BitReader has
                // no unread; instead we re-buffer via a small shim below.
                // To keep the hot path allocation-free, BitReader exposes
                // exact consumption through read_bits only, so we emulate
                // unread with the `unread` helper.
                r.unread_bits(bits >> len, avail - len as u32);
                Ok(sym as usize)
            }
            Err(_) => {
                // Slow path: narrow bit by bit.
                let mut code = 0u64;
                for n in 0..self.max {
                    code |= (r.read_bit()? as u64) << n;
                    // Check if any symbol matches at this length by probing
                    // the table with zero padding: valid iff the entry's
                    // length equals n+1.
                    let probe = code as usize & ((1usize << self.max) - 1);
                    let (sym, len) = self.table[probe];
                    if sym != u16::MAX && len as u32 == n + 1 {
                        return Ok(sym as usize);
                    }
                }
                Err(Error::Corrupt("invalid Huffman code at stream end"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitio::{BitReader, BitWriter};

    fn roundtrip(freqs: &[u64], message: &[usize]) {
        let enc = Encoder::from_freqs(freqs, MAX_CODE_LEN);
        let mut w = BitWriter::new();
        for &s in message {
            enc.write_symbol(&mut w, s);
        }
        let bytes = w.finish();
        let dec = Decoder::from_lengths(enc.lengths()).unwrap();
        let mut r = BitReader::new(&bytes);
        for &s in message {
            assert_eq!(dec.read_symbol(&mut r).unwrap(), s);
        }
    }

    #[test]
    fn simple_alphabet_roundtrip() {
        let freqs = [45u64, 13, 12, 16, 9, 5];
        let msg: Vec<usize> = (0..6).cycle().take(100).collect();
        roundtrip(&freqs, &msg);
    }

    #[test]
    fn single_symbol_alphabet() {
        let freqs = [0u64, 100, 0];
        roundtrip(&freqs, &[1, 1, 1, 1]);
    }

    #[test]
    fn skewed_frequencies_respect_length_limit() {
        // Fibonacci-like frequencies force long codes in unlimited Huffman.
        let mut freqs = vec![0u64; 24];
        let (mut a, mut b) = (1u64, 1u64);
        for f in freqs.iter_mut() {
            *f = a;
            let c = a + b;
            a = b;
            b = c;
        }
        let lengths = code_lengths(&freqs, 15);
        assert!(lengths.iter().all(|&l| l <= 15 && l > 0));
        // Kraft equality for a complete code.
        let kraft: f64 = lengths.iter().map(|&l| 2f64.powi(-(l as i32))).sum();
        assert!((kraft - 1.0).abs() < 1e-12, "kraft {kraft}");
    }

    #[test]
    fn package_merge_is_optimal_when_unconstrained() {
        // For frequencies 1,1,2,4: optimal lengths 3,3,2,1 (cost 14 bits).
        let lengths = code_lengths(&[1, 1, 2, 4], 15);
        let cost: u64 = [1u64, 1, 2, 4]
            .iter()
            .zip(&lengths)
            .map(|(f, &l)| f * l as u64)
            .sum();
        assert_eq!(cost, 14);
    }

    #[test]
    fn oversubscribed_lengths_rejected() {
        // Three 1-bit codes cannot exist.
        assert!(Decoder::from_lengths(&[1, 1, 1]).is_err());
    }

    #[test]
    fn zero_freq_symbols_get_no_code() {
        let lengths = code_lengths(&[5, 0, 3, 0], 15);
        assert_eq!(lengths[1], 0);
        assert_eq!(lengths[3], 0);
        assert!(lengths[0] > 0 && lengths[2] > 0);
    }

    #[test]
    fn canonical_codes_are_prefix_free() {
        let lengths = code_lengths(&[10, 9, 8, 7, 6, 5, 4, 3, 2, 1], 15);
        let codes = canonical_codes(&lengths);
        // Reverse back to MSB-first and check prefix-freeness pairwise.
        let msb: Vec<(u32, u32)> = lengths
            .iter()
            .zip(&codes)
            .filter(|(&l, _)| l > 0)
            .map(|(&l, &c)| (l, c.reverse_bits() >> (32 - l)))
            .collect();
        for (i, &(li, ci)) in msb.iter().enumerate() {
            for (j, &(lj, cj)) in msb.iter().enumerate() {
                if i == j {
                    continue;
                }
                let (short, long) = if li <= lj { ((li, ci), (lj, cj)) } else { ((lj, cj), (li, ci)) };
                assert!(
                    long.1 >> (long.0 - short.0) != short.1,
                    "code {i} prefixes {j}"
                );
            }
        }
    }

    /// The package-merge this module used before the counted form: every
    /// level cloned and stably sorted, every taken package walked on a
    /// stack. Kept as the oracle for `code_lengths`.
    fn sort_and_walk(freqs: &[u64], max_len: u32) -> Vec<u32> {
        #[derive(Clone, Copy)]
        enum Node {
            Leaf(u32),
            Pair(u32, u32),
        }
        let active: Vec<usize> = (0..freqs.len()).filter(|&i| freqs[i] > 0).collect();
        let mut lengths = vec![0u32; freqs.len()];
        if active.len() < 2 {
            if let [only] = active[..] {
                lengths[only] = 1;
            }
            return lengths;
        }
        let leaf_items: Vec<(u64, Node)> = active
            .iter()
            .enumerate()
            .map(|(j, &i)| (freqs[i], Node::Leaf(j as u32)))
            .collect();
        let mut levels: Vec<Vec<(u64, Node)>> = Vec::new();
        for _level in 0..max_len {
            let mut merged = leaf_items.clone();
            if let Some(prev) = levels.last() {
                for (k, pair) in prev.chunks_exact(2).enumerate() {
                    let node = Node::Pair(2 * k as u32, 2 * k as u32 + 1);
                    merged.push((pair[0].0 + pair[1].0, node));
                }
            }
            merged.sort_by_key(|p| p.0);
            levels.push(merged);
        }
        let top = levels.len() - 1;
        let mut stack: Vec<(usize, u32)> =
            (0..2 * (active.len() - 1)).map(|i| (top, i as u32)).collect();
        while let Some((level, idx)) = stack.pop() {
            match levels[level][idx as usize].1 {
                Node::Leaf(j) => lengths[active[j as usize]] += 1,
                Node::Pair(a, b) => {
                    stack.push((level - 1, a));
                    stack.push((level - 1, b));
                }
            }
        }
        lengths
    }

    #[test]
    fn counted_package_merge_matches_sort_and_walk() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        for case in 0..3000 {
            let n = 2 + next(299) as usize;
            // Narrow frequency ranges force ties between leaves and between
            // leaves and package sums; wide ones force deep, clamped codes.
            let spread = [2, 4, 16, 1 << 20][case % 4];
            let freqs: Vec<u64> = (0..n)
                .map(|_| if next(5) == 0 { 0 } else { 1 + next(spread) })
                .collect();
            let active = freqs.iter().filter(|&&f| f > 0).count().max(1);
            let min_len = usize::BITS - (active - 1).leading_zeros();
            for max_len in [min_len.max(1), (min_len + 1).min(15), 15] {
                assert_eq!(
                    code_lengths(&freqs, max_len),
                    sort_and_walk(&freqs, max_len),
                    "case {case}, max_len {max_len}, freqs {freqs:?}"
                );
            }
        }
        // Fibonacci weights: every level holds ties between a leaf and a sum.
        let mut fib = vec![1u64, 1];
        while fib.len() < 30 {
            fib.push(fib[fib.len() - 1] + fib[fib.len() - 2]);
        }
        for max_len in 5..=15 {
            let (counted, walked) = (code_lengths(&fib, max_len), sort_and_walk(&fib, max_len));
            assert_eq!(counted, walked, "max_len {max_len}");
        }
    }

    #[test]
    fn large_random_alphabet_roundtrip() {
        // Deterministic pseudo-random frequencies.
        let mut state = 0x12345678u64;
        let mut freqs = vec![0u64; 300];
        for f in freqs.iter_mut() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            *f = state >> 50; // some zeros likely
        }
        freqs[0] = 1; // ensure at least one active symbol
        let active: Vec<usize> = (0..300).filter(|&i| freqs[i] > 0).collect();
        let msg: Vec<usize> = active.iter().cycle().take(5000).copied().collect();
        roundtrip(&freqs, &msg);
    }
}
