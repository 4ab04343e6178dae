//! Property tests for the lossless substrate.

use cc_lossless::bitio::{BitReader, BitWriter};
use cc_lossless::huffman::{code_lengths, Decoder, Encoder, MAX_CODE_LEN};
use cc_lossless::lz77::{expand, tokenize, Effort};
use cc_lossless::{compress, decompress, shuffle, unshuffle, Level};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn deflate_roundtrip(data in prop::collection::vec(any::<u8>(), 0..8192)) {
        let z = compress(&data, Level::Default);
        prop_assert_eq!(decompress(&z).unwrap(), data);
    }

    #[test]
    fn deflate_roundtrip_repetitive(
        unit in prop::collection::vec(any::<u8>(), 1..64),
        reps in 1usize..200,
    ) {
        let data: Vec<u8> = unit.iter().cycle().take(unit.len() * reps).copied().collect();
        let z = compress(&data, Level::Best);
        prop_assert_eq!(decompress(&z).unwrap(), data);
    }

    #[test]
    fn decompress_never_panics_on_garbage(data in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = decompress(&data);
    }

    #[test]
    fn truncation_never_panics(data in prop::collection::vec(any::<u8>(), 1..2048), cut in any::<prop::sample::Index>()) {
        let z = compress(&data, Level::Fast);
        let cut = cut.index(z.len());
        let _ = decompress(&z[..cut]);
    }

    #[test]
    fn shuffle_is_inverse(data in prop::collection::vec(any::<u8>(), 0..4096), esize in 1usize..12) {
        prop_assert_eq!(unshuffle(&shuffle(&data, esize), esize), data);
    }

    #[test]
    fn lz77_roundtrip_all_efforts(data in prop::collection::vec(any::<u8>(), 0..4096)) {
        for effort in [Effort::Fast, Effort::Default, Effort::Best] {
            let tokens = tokenize(&data, effort);
            prop_assert_eq!(expand(&tokens, data.len()), data.clone());
        }
    }

    #[test]
    fn bitio_roundtrip(values in prop::collection::vec((any::<u64>(), 1u32..57), 0..200)) {
        let mut w = BitWriter::new();
        for &(v, n) in &values {
            w.write_bits(v & ((1u64 << n) - 1), n);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &values {
            prop_assert_eq!(r.read_bits(n).unwrap(), v & ((1u64 << n) - 1));
        }
    }

    #[test]
    fn rice_roundtrip(values in prop::collection::vec(any::<u64>(), 0..200), k in 0u32..20) {
        let mut w = BitWriter::new();
        for &v in &values {
            w.write_rice(v, k);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &v in &values {
            prop_assert_eq!(r.read_rice(k).unwrap(), v);
        }
    }

    #[test]
    fn huffman_lengths_satisfy_kraft(freqs in prop::collection::vec(0u64..1_000_000, 2..300)) {
        let lengths = code_lengths(&freqs, MAX_CODE_LEN);
        let active = freqs.iter().filter(|&&f| f > 0).count();
        if active >= 2 {
            let kraft: f64 = lengths
                .iter()
                .filter(|&&l| l > 0)
                .map(|&l| 2f64.powi(-(l as i32)))
                .sum();
            prop_assert!(kraft <= 1.0 + 1e-9, "kraft {}", kraft);
            // Optimal prefix code on ≥2 symbols is complete.
            prop_assert!(kraft >= 1.0 - 1e-9, "incomplete code: {}", kraft);
        }
    }

    #[test]
    fn huffman_coder_roundtrip(
        freqs in prop::collection::vec(0u64..10_000, 2..64),
        picks in prop::collection::vec(any::<prop::sample::Index>(), 1..500),
    ) {
        let active: Vec<usize> = (0..freqs.len()).filter(|&i| freqs[i] > 0).collect();
        prop_assume!(!active.is_empty());
        let enc = Encoder::from_freqs(&freqs, MAX_CODE_LEN);
        let msg: Vec<usize> = picks.iter().map(|ix| active[ix.index(active.len())]).collect();
        let mut w = BitWriter::new();
        for &s in &msg {
            enc.write_symbol(&mut w, s);
        }
        let bytes = w.finish();
        let dec = Decoder::from_lengths(enc.lengths()).unwrap();
        let mut r = BitReader::new(&bytes);
        for &s in &msg {
            prop_assert_eq!(dec.read_symbol(&mut r).unwrap(), s);
        }
    }

    #[test]
    fn f32_path_roundtrip(data in prop::collection::vec(any::<f32>(), 0..2000)) {
        // Bit-exact for every representable float, including NaN payloads.
        let z = cc_lossless::compress_f32_shuffled(&data, Level::Default);
        let back = cc_lossless::decompress_f32_shuffled(&z).unwrap();
        prop_assert_eq!(back.len(), data.len());
        for (a, b) in data.iter().zip(&back) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
