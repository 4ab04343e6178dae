//! LZ77 match finding with hash chains over a 32 KiB window.
//!
//! Produces the token stream consumed by [`crate::deflate`]: literals and
//! `(length, distance)` back-references with DEFLATE's limits (match length
//! 3..=258, distance 1..=32768).

use std::cell::RefCell;

/// Minimum match length worth encoding.
pub const MIN_MATCH: usize = 3;
/// Maximum match length.
pub const MAX_MATCH: usize = 258;
/// Sliding-window size; distances never exceed this.
pub const WINDOW: usize = 32 * 1024;

/// One LZ77 token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token {
    /// A single literal byte.
    Literal(u8),
    /// A back-reference: copy `len` bytes from `dist` bytes behind.
    Match { len: u16, dist: u16 },
}

/// Match-finding effort. Chain lengths trade speed for ratio.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Short chains, no lazy matching.
    Fast,
    /// Longer chains with one-step lazy matching (zlib level ~6).
    Default,
    /// Exhaustive-ish chains with lazy matching.
    Best,
}

impl Effort {
    fn max_chain(self) -> usize {
        match self {
            Effort::Fast => 8,
            Effort::Default => 64,
            Effort::Best => 512,
        }
    }

    fn lazy(self) -> bool {
        !matches!(self, Effort::Fast)
    }

    /// Matches at least this long stop the search early.
    fn nice_length(self) -> usize {
        match self {
            Effort::Fast => 32,
            Effort::Default => 128,
            Effort::Best => MAX_MATCH,
        }
    }
}

const HASH_BITS: u32 = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;

/// Length of the common prefix of `data[a..]` and `data[b..]`, capped at
/// `max_len`, with `b + max_len <= data.len()` and `a < b`. Compares
/// whole 64-bit words and locates the first differing byte with a
/// trailing-zero count, so runs extend eight bytes per iteration; the
/// result is exactly the byte-loop answer.
#[inline]
fn match_len(data: &[u8], a: usize, b: usize, max_len: usize) -> usize {
    let mut l = 0usize;
    while l + 8 <= max_len {
        let wa = u64::from_le_bytes(data[a + l..a + l + 8].try_into().unwrap());
        let wb = u64::from_le_bytes(data[b + l..b + l + 8].try_into().unwrap());
        let x = wa ^ wb;
        if x != 0 {
            return l + (x.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    while l < max_len && data[a + l] == data[b + l] {
        l += 1;
    }
    l
}

#[inline]
fn hash3(data: &[u8], i: usize) -> usize {
    // One unaligned 32-bit load masked to the low 3 bytes — the same value
    // the byte-assembled form produces, so every chain decision (and thus
    // the token stream) is unchanged. The byte fallback only runs within
    // 4 bytes of the end.
    let v = if i + 4 <= data.len() {
        u32::from_le_bytes(data[i..i + 4].try_into().unwrap()) & 0x00FF_FFFF
    } else {
        (data[i] as u32) | ((data[i + 1] as u32) << 8) | ((data[i + 2] as u32) << 16)
    };
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Hash-chain tables, kept per thread: a call zeroes the 128 KiB `head`
/// and allocates no table. Both are fixed-size arrays, so the hashed and
/// masked indices need no bounds check.
///
/// `head[h]` is the most recent position with hash h (+1; 0 = none), and
/// `prev[i & (WINDOW-1)]` the previous position in i's chain (+1; 0 =
/// none). `head` is cleared on every call, so each walk starts at a
/// position this call inserted. (A stale entry would not change the tokens,
/// since a position of this call with another hash never matches, but it
/// would send the walk down that hash's chain.) `prev` is never cleared: a
/// walk reads `prev[c & (WINDOW-1)]` only for a position `c` this call
/// inserted, with `pos - c <= WINDOW`. That slot was written when `c` was
/// inserted, and the next write to it would come from position
/// `c + WINDOW`, which is not below `pos` and so not inserted yet. By
/// induction every candidate is a position of this call, and nothing an
/// earlier call left in `prev` is ever read.
struct Tables {
    head: Box<[u32; HASH_SIZE]>,
    prev: Box<[u32; WINDOW]>,
}

thread_local! {
    static TABLES: RefCell<Tables> = RefCell::new(Tables {
        head: vec![0; HASH_SIZE].into_boxed_slice().try_into().expect("HASH_SIZE entries"),
        prev: vec![0; WINDOW].into_boxed_slice().try_into().expect("WINDOW entries"),
    });
}

/// Tokenize `data` with hash-chain match finding.
pub fn tokenize(data: &[u8], effort: Effort) -> Vec<Token> {
    let n = data.len();
    let mut tokens = Vec::with_capacity(n / 2 + 16);
    if n < MIN_MATCH {
        tokens.extend(data.iter().map(|&b| Token::Literal(b)));
        return tokens;
    }
    TABLES.with_borrow_mut(|Tables { head, prev }| {
        head.fill(0);
        tokenize_into(data, effort, head, prev, &mut tokens);
    });
    tokens
}

/// The match-finding loop of [`tokenize`] over the thread's tables, for an
/// input of at least [`MIN_MATCH`] bytes.
fn tokenize_into(
    data: &[u8],
    effort: Effort,
    head: &mut [u32; HASH_SIZE],
    prev: &mut [u32; WINDOW],
    tokens: &mut Vec<Token>,
) {
    let n = data.len();
    let max_chain = effort.max_chain();
    let nice = effort.nice_length();

    // `hash` is the precomputed hash3 at `pos` (the main loop computes it
    // once per position and shares it with the insert at the same spot).
    let find_match = |data: &[u8],
                      head: &[u32; HASH_SIZE],
                      prev: &[u32; WINDOW],
                      pos: usize,
                      hash: usize|
     -> Option<(usize, usize)> {
        let mut cand = head[hash] as usize;
        let max_len = MAX_MATCH.min(data.len() - pos);
        let mut best_len = MIN_MATCH - 1;
        let mut best_dist = 0usize;
        let mut chain = 0usize;
        // Quick-reject byte after the current best; loop-invariant between
        // improvements (in bounds: best_len < max_len ≤ data.len() - pos).
        let mut scan_byte = data[pos + best_len];
        while cand > 0 && chain < max_chain {
            let c = cand - 1;
            if c >= pos || pos - c > WINDOW {
                break;
            }
            if data[c + best_len] == scan_byte {
                let l = match_len(data, c, pos, max_len);
                if l > best_len {
                    best_len = l;
                    best_dist = pos - c;
                    if l >= nice || best_len >= max_len {
                        break;
                    }
                    scan_byte = data[pos + best_len];
                }
            }
            cand = prev[c & (WINDOW - 1)] as usize;
            chain += 1;
        }
        if best_len >= MIN_MATCH {
            Some((best_len, best_dist))
        } else {
            None
        }
    };

    // Insert with the hash already in hand (caller guarantees
    // `i + MIN_MATCH <= data.len()`).
    let insert_at = |head: &mut [u32; HASH_SIZE], prev: &mut [u32; WINDOW], h: usize, i: usize| {
        prev[i & (WINDOW - 1)] = head[h];
        head[h] = (i + 1) as u32;
    };
    let insert = |head: &mut [u32; HASH_SIZE], prev: &mut [u32; WINDOW], data: &[u8], i: usize| {
        if i + MIN_MATCH <= data.len() {
            let h = hash3(data, i);
            prev[i & (WINDOW - 1)] = head[h];
            head[h] = (i + 1) as u32;
        }
    };

    let mut i = 0usize;
    let mut pending: Option<(usize, usize)> = None; // lazy-held match at i-1
    while i < n {
        let tail = i + MIN_MATCH > n;
        let h = if tail { 0 } else { hash3(data, i) };
        let cur = if tail { None } else { find_match(data, head, prev, i, h) };
        if let Some((plen, pdist)) = pending {
            // Lazy evaluation: if the current match is strictly better,
            // emit a literal for i-1 and keep searching from i.
            let cur_better = cur.map(|(l, _)| l > plen).unwrap_or(false);
            if cur_better {
                tokens.push(Token::Literal(data[i - 1]));
                pending = cur;
                insert_at(head, prev, h, i);
                i += 1;
                continue;
            } else {
                // Emit the pending match starting at i-1.
                tokens.push(Token::Match { len: plen as u16, dist: pdist as u16 });
                // Insert hash entries for the matched span (minus the one
                // already inserted at i-1 and the probe at i).
                let end = (i - 1) + plen;
                if !tail {
                    insert_at(head, prev, h, i);
                }
                for j in i + 1..end {
                    insert(head, prev, data, j);
                }
                pending = None;
                i = end;
                continue;
            }
        }
        match cur {
            Some((len, dist)) => {
                if effort.lazy() && len < nice && i + 1 < n {
                    pending = Some((len, dist));
                    insert_at(head, prev, h, i);
                    i += 1;
                } else {
                    tokens.push(Token::Match { len: len as u16, dist: dist as u16 });
                    let end = i + len;
                    insert_at(head, prev, h, i);
                    for j in i + 1..end {
                        insert(head, prev, data, j);
                    }
                    i = end;
                }
            }
            None => {
                tokens.push(Token::Literal(data[i]));
                if !tail {
                    insert_at(head, prev, h, i);
                }
                i += 1;
            }
        }
    }
    if let Some((plen, pdist)) = pending {
        // Input ended while holding a match that starts at n-? — the match
        // was found at position i-1 and i == n, so it is still valid.
        tokens.push(Token::Match { len: plen as u16, dist: pdist as u16 });
        // Tokens after this would over-run; trim the tail literals the
        // match already covers. The main loop structure guarantees none
        // were emitted, so nothing to do.
    }
}

/// Expand a token stream back into bytes. `size_hint` preallocates.
pub fn expand(tokens: &[Token], size_hint: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(size_hint);
    for t in tokens {
        match *t {
            Token::Literal(b) => out.push(b),
            Token::Match { len, dist } => {
                let dist = dist as usize;
                let len = len as usize;
                assert!(dist >= 1 && dist <= out.len(), "invalid distance");
                let start = out.len() - dist;
                if dist >= len {
                    out.extend_from_within(start..start + len);
                } else {
                    // Overlapping copies (dist < len) must replicate bytes
                    // produced earlier in this same match.
                    for k in 0..len {
                        let b = out[start + k];
                        out.push(b);
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8], effort: Effort) {
        let tokens = tokenize(data, effort);
        let back = expand(&tokens, data.len());
        assert_eq!(data, &back[..]);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        for effort in [Effort::Fast, Effort::Default, Effort::Best] {
            roundtrip(b"", effort);
            roundtrip(b"a", effort);
            roundtrip(b"ab", effort);
            roundtrip(b"abc", effort);
        }
    }

    #[test]
    fn repeated_text_produces_matches() {
        let data = b"the quick brown fox. the quick brown fox. the quick brown fox.";
        let tokens = tokenize(data, Effort::Default);
        assert!(tokens.iter().any(|t| matches!(t, Token::Match { .. })));
        roundtrip(data, Effort::Default);
    }

    #[test]
    fn run_of_identical_bytes_uses_overlapping_match() {
        let data = vec![7u8; 1000];
        let tokens = tokenize(&data, Effort::Default);
        // A run should compress to a couple of tokens (literal + overlapping match).
        assert!(tokens.len() < 20, "got {} tokens", tokens.len());
        assert_eq!(expand(&tokens, data.len()), data);
    }

    #[test]
    fn pseudo_random_roundtrip_all_efforts() {
        let mut state = 42u64;
        let data: Vec<u8> = (0..20000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect();
        for effort in [Effort::Fast, Effort::Default, Effort::Best] {
            roundtrip(&data, effort);
        }
    }

    #[test]
    fn structured_float_bytes_roundtrip() {
        let floats: Vec<f32> = (0..8192).map(|i| (i as f32 * 0.01).sin()).collect();
        let data: Vec<u8> = floats.iter().flat_map(|v| v.to_le_bytes()).collect();
        roundtrip(&data, Effort::Default);
    }

    #[test]
    fn long_distance_matches_within_window() {
        // Two identical 1 KiB chunks separated by 30 KiB of unique filler.
        let chunk: Vec<u8> = (0..1024u32).map(|i| (i % 251) as u8).collect();
        let filler: Vec<u8> = (0..30_000u32).map(|i| (i * 7919 % 256) as u8).collect();
        let mut data = chunk.clone();
        data.extend(&filler);
        data.extend(&chunk);
        let tokens = tokenize(&data, Effort::Best);
        assert_eq!(expand(&tokens, data.len()), data);
    }

    #[test]
    fn match_lengths_and_distances_in_bounds() {
        let data: Vec<u8> = std::iter::repeat_n(b"abcdefgh".as_slice(), 500)
            .flatten()
            .copied()
            .collect();
        for t in tokenize(&data, Effort::Default) {
            if let Token::Match { len, dist } = t {
                assert!((MIN_MATCH..=MAX_MATCH).contains(&(len as usize)));
                assert!(dist as usize >= 1 && dist as usize <= WINDOW);
            }
        }
    }

    /// The thread's `head` table, as the last call left it.
    fn head_table() -> Vec<u32> {
        TABLES.with_borrow(|t| t.head.to_vec())
    }

    #[test]
    fn reused_tables_match_a_fresh_thread() {
        let mut state = 7u64;
        let mut noise = |n: usize| -> Vec<u8> {
            (0..n)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (state >> 60) as u8
                })
                .collect()
        };
        let floats = |n: usize, f: f32| -> Vec<u8> {
            (0..n / 4).flat_map(|i| (i as f32 * f).sin().to_le_bytes()).collect()
        };
        // Longer then shorter inputs, one past the window and two below a
        // match, so each call finds the tables another call left behind.
        let inputs = [
            floats(3 * WINDOW, 0.01),
            noise(9_500),
            floats(20_000, 0.003),
            b"ab".to_vec(),
            noise(WINDOW + 1_000),
            vec![5u8; 2],
            floats(700, 0.2),
            noise(40),
        ];
        for effort in [Effort::Fast, Effort::Default, Effort::Best] {
            for data in &inputs {
                let here = (tokenize(data, effort), head_table());
                let copy = data.clone();
                let fresh = std::thread::spawn(move || (tokenize(&copy, effort), head_table()))
                    .join()
                    .unwrap();
                assert!(here.0 == fresh.0, "{effort:?}, {} bytes: tokens differ", data.len());
                // Below MIN_MATCH the tables are not touched, so only the
                // tokens compare.
                if data.len() >= MIN_MATCH {
                    assert!(here.1 == fresh.1, "{effort:?}, {} bytes: stale head", data.len());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid distance")]
    fn expand_rejects_bad_distance() {
        expand(&[Token::Match { len: 3, dist: 5 }], 8);
    }
}
