//! Property tests for the information-theoretic estimators.

use sep_covert::channel::score_transfer;
use sep_covert::estimate::{binary_entropy, bsc_capacity, entropy, mutual_information};
use sep_model::prop::{check, Gen};

/// Paired symbols over `0..4`, split into the two sequences.
fn pairs(g: &mut Gen, len: std::ops::Range<usize>) -> (Vec<u8>, Vec<u8>) {
    g.vec(len, |g| (g.int(0u8..4), g.int(0u8..4)))
        .into_iter()
        .unzip()
}

fn bytes(g: &mut Gen, len: std::ops::Range<usize>) -> Vec<u8> {
    g.vec(len, |g| g.int(..))
}

#[test]
fn entropy_is_bounded() {
    check(
        256,
        |g| g.vec(1..300, |g| g.int(0u8..8)),
        |xs| {
            let h = entropy(&xs);
            let distinct = xs.iter().collect::<std::collections::HashSet<_>>().len();
            assert!(h >= -1e-9);
            assert!(h <= (distinct as f64).log2() + 1e-9);
        },
    );
}

#[test]
fn mutual_information_is_nonnegative_and_bounded() {
    check(
        256,
        |g| pairs(g, 1..300),
        |(xs, ys)| {
            let mi = mutual_information(&xs, &ys);
            assert!(mi >= -1e-9, "{mi}");
            assert!(mi <= entropy(&xs) + 1e-9);
            assert!(mi <= entropy(&ys) + 1e-9);
        },
    );
}

#[test]
fn mi_symmetry() {
    check(
        256,
        |g| pairs(g, 1..200),
        |(xs, ys)| {
            let a = mutual_information(&xs, &ys);
            let b = mutual_information(&ys, &xs);
            assert!((a - b).abs() < 1e-9);
        },
    );
}

#[test]
fn binary_entropy_symmetry() {
    check(256, Gen::unit, |p| {
        assert!((binary_entropy(p) - binary_entropy(1.0 - p)).abs() < 1e-9);
        assert!(binary_entropy(p) >= -1e-9 && binary_entropy(p) <= 1.0 + 1e-9);
    });
}

#[test]
fn bsc_capacity_bounded() {
    check(256, Gen::unit, |p| {
        let c = bsc_capacity(p);
        assert!((0.0..=1.0).contains(&(c + 1e-12)));
    });
}

#[test]
fn score_transfer_is_lawful() {
    let gen = |g: &mut Gen| (bytes(g, 0..64), bytes(g, 0..64), g.int(1u64..10_000));
    check(256, gen, |(secret, recovered, rounds)| {
        let s = score_transfer(&secret, &recovered, rounds);
        assert_eq!(s.bits_attempted, secret.len() * 8);
        assert!(s.bits_correct <= s.bits_attempted);
        assert!((0.0..=1.0).contains(&s.error_rate), "{}", s.error_rate);
        assert!(s.bits_per_round >= 0.0);
        assert!(s.bits_per_round <= s.bits_attempted as f64 / rounds as f64 + 1e-9);
    });
}

#[test]
fn perfect_recovery_scores_zero_error() {
    check(
        256,
        |g| bytes(g, 1..64),
        |secret| {
            let s = score_transfer(&secret, &secret, 100);
            assert!(s.error_rate.abs() < 1e-12);
            assert_eq!(s.bits_correct, s.bits_attempted);
        },
    );
}
