//! Property tests for the formal model: the checker, wire-cutting, and
//! exploration behave lawfully on randomized systems, and the sharded
//! checker's report equals the reference checker's on them.

use sep_bench::symmetric_workload;
use sep_kernel::verify::{canon_key, KernelState, KernelSystem};
use sep_model::check::SeparabilityChecker;
use sep_model::cut::{check_isolation, cut};
use sep_model::demo::{DemoMachine, Leak};
use sep_model::explore::{reachable_states, SampledChecker};
use sep_model::objects::{ObjRef, ObjectSystem};
use sep_model::parallel::ParallelSeparabilityChecker;
use sep_model::prop::{check, Gen};
use sep_model::system::{Finite, SharedSystem};

/// A symmetric kernel system with the reduction substrate wired up, plus
/// the state reached by walking `choices` (each byte picks the next input).
fn walk_symmetric(
    n: usize,
    choices: &[u8],
) -> (KernelSystem, Vec<sep_kernel::verify::KInput>, KernelState) {
    let sys = KernelSystem::new(symmetric_workload(n))
        .unwrap()
        .with_input_bytes(&[1])
        .with_symmetry(true)
        .with_por(true);
    let inputs = sys.inputs();
    let mut s = sys.initial();
    for &c in choices {
        let (_, next) = sys.step(&s, &inputs[c as usize % inputs.len()]);
        s = next;
    }
    (sys, inputs, s)
}

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

/// Draws `build_system` sizes: `own` from `1..3`, `shared` from `shared`.
fn sizes(g: &mut Gen, shared: std::ops::Range<usize>) -> (usize, usize) {
    (g.int(1usize..3), g.int(shared))
}

#[test]
fn private_systems_are_always_separable() {
    check(
        16,
        |g| g.int(1usize..3),
        |own| {
            let (sys, _) = build_system(own, 0);
            let report = SeparabilityChecker::new().check(&sys, &sys.object_abstractions());
            assert!(report.is_separable(), "{report}");
        },
    );
}

#[test]
fn shared_objects_always_fail_isolation() {
    check(
        16,
        |g| sizes(g, 1..3),
        |(own, shared)| {
            let (sys, _) = build_system(own, shared);
            assert!(check_isolation(&sys).is_err());
        },
    );
}

#[test]
fn cutting_all_channels_restores_isolation() {
    check(
        16,
        |g| sizes(g, 1..3),
        |(own, shared)| {
            let (sys, channels) = build_system(own, shared);
            let cut_sys = cut(&sys, &channels);
            assert!(check_isolation(&cut_sys.system).is_ok());
            let report = SeparabilityChecker::new()
                .check(&cut_sys.system, &cut_sys.system.object_abstractions());
            assert!(report.is_separable(), "{report}");
        },
    );
}

#[test]
fn cutting_some_channels_leaves_the_rest_detected() {
    check(
        16,
        |g| (g.int(1usize..2), g.int(2usize..4)),
        |(own, shared)| {
            let (sys, channels) = build_system(own, shared);
            let cut_sys = cut(&sys, &channels[..shared - 1]);
            // The uncut channel is still shared.
            let uncut_name = format!("x{}", shared - 1);
            match check_isolation(&cut_sys.system) {
                Err(ws) => {
                    let found = ws.iter().any(|w| w.object == uncut_name);
                    assert!(found, "witnesses: {ws:?}");
                }
                Ok(()) => panic!("missed the uncut channel"),
            }
        },
    );
}

#[test]
fn reachability_is_deterministic_and_closed() {
    check(
        16,
        |g| g.int(1usize..3),
        |own| {
            let (sys, _) = build_system(own, 0);
            let (s1, t1) = reachable_states(&sys, &[sys.initial()], &[()], 100_000);
            let (s2, _) = reachable_states(&sys, &[sys.initial()], &[()], 100_000);
            assert!(!t1);
            assert_eq!(&s1, &s2);
            // Closure: stepping any reachable state stays in the set.
            for s in &s1 {
                let (_, next) = sys.step(s, &());
                assert!(s1.contains(&next));
            }
        },
    );
}

#[test]
fn sampled_checker_agrees_with_exhaustive_on_demo() {
    check(
        16,
        |g| g.int::<u64>(..),
        |seed| {
            let secure = DemoMachine::secure(4);
            let report = SampledChecker::new(seed, 16, 64).check(
                &secure,
                &secure.abstractions(),
                &[secure.initial()],
                &secure.inputs(),
            );
            assert!(report.is_separable(), "{report}");
        },
    );
}

/// A symmetric-workload size and the input choices that walk it.
fn walk(g: &mut Gen) -> (usize, Vec<u8>) {
    (g.int(2usize..4), g.vec(0..12, |g| g.int(..)))
}

#[test]
fn canon_is_idempotent_and_rotation_invariant() {
    check(
        16,
        |g| (walk(g), g.int::<usize>(..)),
        |((n, choices), rot_seed)| {
            // The canonical key of a state must be (a) a pure function — two
            // computations agree — and (b) invariant under every rotation the
            // adapter declared valid: canon(rotate(s)) == canon(s). Together
            // these make the orbit collapse of the symmetry reduction sound.
            let (sys, _, s) = walk_symmetric(n, &choices);
            let rotations = sys.valid_rotations();
            assert_eq!(
                rotations.len(),
                n - 1,
                "symmetric workload must rotate freely"
            );
            assert_eq!(canon_key(&rotations, &s), canon_key(&rotations, &s));
            let rot = 1 + rot_seed % (n - 1);
            let mut rotated = s.kernel.clone();
            rotated.rotate_regime_contents(rot);
            let rs = KernelState::new(rotated);
            assert_eq!(
                canon_key(&rotations, &rs),
                canon_key(&rotations, &s),
                "rotation by {} changed the canonical key",
                rot
            );
            // Rotating twice (composing group elements) stays in the orbit.
            let mut twice = rs.kernel.clone();
            twice.rotate_regime_contents(1 + (rot_seed / 7) % (n - 1));
            assert_eq!(
                canon_key(&rotations, &KernelState::new(twice)),
                canon_key(&rotations, &s)
            );
        },
    );
}

#[test]
fn ample_never_drops_a_non_deferrable_input() {
    check(16, walk, |(n, choices)| {
        // The ample selector may defer an input only when the partial-order
        // argument holds: the input has a footprint (it is not the null
        // input), that footprint is disjoint from the step's (they
        // commute), and the deferral can be made up later. Everything else
        // must be kept, with its original alphabet index.
        let (sys, inputs, s) = walk_symmetric(n, &choices);
        let keep = sys.ample_of(&s, &inputs).indices(inputs.len());
        assert!(!keep.is_empty(), "ample set must never be empty");
        assert!(
            keep.windows(2).all(|w| w[0] < w[1]),
            "indices not ascending: {:?}",
            keep
        );
        assert!(
            keep.iter().all(|&i| i < inputs.len()),
            "index out of range: {:?}",
            keep
        );
        let step = sys.step_footprint(&s);
        for (i, input) in inputs.iter().enumerate() {
            if keep.contains(&i) {
                continue;
            }
            let fp = sys.input_footprint(input);
            assert!(fp.regimes != 0, "dropped the null input (index {})", i);
            assert!(
                !fp.overlaps(&step),
                "dropped input {} whose footprint overlaps the step's",
                i
            );
        }
    });
}

#[test]
fn sampled_checker_finds_op_leaks() {
    check(
        16,
        |g| g.int::<u64>(..),
        |seed| {
            // The write-leak is on every path, so any reasonable walk finds it.
            let leaky = DemoMachine::leaky(4, Leak::OpWritesForeign);
            let report = SampledChecker::new(seed, 16, 64).check(
                &leaky,
                &leaky.abstractions(),
                &[leaky.initial()],
                &leaky.inputs(),
            );
            assert!(!report.is_separable());
        },
    );
}

/// On object systems with and without cross-colour sharing, the sharded
/// checker's report equals the reference checker's at every shard count.
#[test]
fn parallel_report_equals_sequential() {
    check(
        16,
        |g| sizes(g, 0..3),
        |(own, shared)| {
            let (sys, _) = build_system(own, shared);
            let abstractions = sys.object_abstractions();
            let seq = SeparabilityChecker::new().check(&sys, &abstractions);
            for shards in [1usize, 2, 3, 4] {
                let par = ParallelSeparabilityChecker::new(shards).check(&sys, &abstractions);
                assert_eq!(seq, par, "own {own} shared {shared} shards {shards}");
            }
        },
    );
}

#[test]
fn checker_counts_are_stable() {
    // The number of checks is a documented function of the state space;
    // pin it so accidental checker changes are visible.
    let m = DemoMachine::secure(4);
    let report = SeparabilityChecker::new().check(&m, &m.abstractions());
    // 32 states, 2 ops, 2 colours: conditions 1+2 together = 32*2 per
    // colour.
    assert_eq!(report.checks[0] + report.checks[1], 2 * 32 * 2, "{report}");
}
