//! Gated behind the `ext-tests` feature: this suite needs the `proptest`
//! crate, which the offline tier-1 environment cannot download. Restore the
//! dev-dependency (see Cargo.toml) and run with `--features ext-tests`.
#![cfg(feature = "ext-tests")]

//! Property tests for the sharded checker: on randomized small object
//! systems the frontier-sharded checker agrees with the reference checker
//! — same report, every shard count — whether the system is separable or
//! seeded with cross-colour sharing.

use proptest::prelude::*;
use sep_model::check::SeparabilityChecker;
use sep_model::objects::{ObjRef, ObjectSystem};
use sep_model::parallel::ParallelSeparabilityChecker;

/// Builds a two-colour object system: each colour owns `own` private
/// counters; `shared` cross-colour channel objects connect them.
fn build_system(own: usize, shared: usize) -> (ObjectSystem, Vec<ObjRef>) {
    let mut sys = ObjectSystem::new(3);
    let a = sys.add_colour("a");
    let b = sys.add_colour("b");
    let mut channels = Vec::new();
    for i in 0..own {
        let xa = sys.add_object(&format!("a{i}"), 0);
        sys.add_op(a, &format!("inc_a{i}"), vec![xa], vec![xa], |v| {
            vec![v[0] + 1]
        });
        let xb = sys.add_object(&format!("b{i}"), 0);
        sys.add_op(b, &format!("inc_b{i}"), vec![xb], vec![xb], |v| {
            vec![v[0] + 2]
        });
    }
    for i in 0..shared {
        let x = sys.add_object(&format!("x{i}"), 0);
        channels.push(x);
        sys.add_op(a, &format!("send{i}"), vec![x], vec![x], |v| vec![v[0] + 1]);
        sys.add_op(b, &format!("recv{i}"), vec![x], vec![x], |v| vec![v[0]]);
    }
    (sys, channels)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn parallel_report_equals_sequential(own in 1usize..3, shared in 0usize..3) {
        let (sys, _) = build_system(own, shared);
        let abstractions = sys.object_abstractions();
        let seq = SeparabilityChecker::new().check(&sys, &abstractions);
        for shards in [1usize, 2, 3, 4] {
            let par = ParallelSeparabilityChecker::new(shards).check(&sys, &abstractions);
            prop_assert_eq!(&seq, &par, "own {} shared {} shards {}", own, shared, shards);
        }
    }

    #[test]
    fn shard_count_never_changes_the_verdict(own in 1usize..3, shared in 0usize..2) {
        let (sys, _) = build_system(own, shared);
        let abstractions = sys.object_abstractions();
        let reports: Vec<_> = [1usize, 2, 3, 4]
            .into_iter()
            .map(|shards| ParallelSeparabilityChecker::new(shards).check(&sys, &abstractions))
            .collect();
        for pair in reports.windows(2) {
            prop_assert_eq!(&pair[0], &pair[1]);
        }
    }
}
