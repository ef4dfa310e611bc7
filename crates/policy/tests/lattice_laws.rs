//! Property tests: every lattice implementation satisfies the lattice laws.

use sep_model::prop::{check, Gen};
use sep_policy::lattice::{Lattice, Subset64, TwoPoint};
use sep_policy::level::{CategorySet, Classification, SecurityLevel};

/// Checks every lattice law on 256 drawn triples `(a, b, c)`.
fn lattice_laws<L: Lattice>(arb: fn(&mut Gen) -> L) {
    check(
        256,
        |g| (arb(g), arb(g), arb(g)),
        |(a, b, c)| {
            // `le` is a partial order.
            assert!(a.le(&a));
            if a.le(&b) && b.le(&a) {
                assert_eq!(a, b);
            }
            if a.le(&b) && b.le(&c) {
                assert!(a.le(&c));
            }
            // `lub` is the least upper bound, `glb` the greatest lower bound.
            let j = a.lub(&b);
            assert!(a.le(&j) && b.le(&j));
            if a.le(&c) && b.le(&c) {
                assert!(j.le(&c));
            }
            let m = a.glb(&b);
            assert!(m.le(&a) && m.le(&b));
            if c.le(&a) && c.le(&b) {
                assert!(c.le(&m));
            }
            // Commutative, idempotent, associative.
            assert_eq!(a.lub(&b), b.lub(&a));
            assert_eq!(a.lub(&a), a);
            assert_eq!(a.glb(&b), b.glb(&a));
            assert_eq!(a.glb(&a), a);
            assert_eq!(a.lub(&b).lub(&c), a.lub(&b.lub(&c)));
            assert_eq!(a.glb(&b).glb(&c), a.glb(&b.glb(&c)));
            // Bounded.
            assert!(L::bottom().le(&a) && a.le(&L::top()));
            // Absorption.
            assert_eq!(a.lub(&a.glb(&b)), a);
            assert_eq!(a.glb(&a.lub(&b)), a);
        },
    );
}

#[test]
fn security_level_laws() {
    lattice_laws(|g| {
        let rank = Classification::from_rank(g.int(0u8..4)).unwrap();
        SecurityLevel::new(rank, CategorySet(g.int(..)))
    });
}

#[test]
fn subset64_laws() {
    lattice_laws(|g| Subset64(g.int(..)));
}

#[test]
fn two_point_laws() {
    lattice_laws(|g| {
        if g.bool() {
            TwoPoint::High
        } else {
            TwoPoint::Low
        }
    });
}
