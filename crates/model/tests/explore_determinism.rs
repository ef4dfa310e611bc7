//! Determinism of the exploration layer: equal seeds give equal sampled
//! reports, BFS discovery order is stable run to run, the truncation
//! flag flips exactly at the state-limit boundary — in both the reference
//! explorer and the frontier-sharded one — and the state-space reductions
//! (canon keys, ample sets, Bloom pre-filter) keep discovery order and the
//! stats projection shard-count-invariant.

use sep_bench::symmetric_workload;
use sep_kernel::verify::KernelSystem;
use sep_model::canon::{Ample, Reduction};
use sep_model::demo::{DemoMachine, Leak};
use sep_model::explore::{reachable_states, SampledChecker};
use sep_model::fp::{fingerprint, BloomParams, Dedup};
use sep_model::parallel::{par_explore, par_reachable_states, ExploreStats};
use sep_model::system::Finite;
use std::collections::HashSet;

/// The shard-count-invariant projection of [`ExploreStats`]: everything
/// except `shards` itself and the per-shard ownership split.
fn projection(s: &ExploreStats) -> (usize, usize, usize, bool, sep_model::canon::ReductionStats) {
    (s.states, s.levels, s.max_frontier, s.truncated, s.reduction)
}

#[test]
fn sampled_checker_is_seed_deterministic() {
    for leak in [Leak::None, Leak::OpWritesForeign] {
        let m = DemoMachine::leaky(4, leak);
        let abstractions = m.abstractions();
        let initial = [m.initial()];
        let inputs = m.inputs();
        let run = |seed: u64| {
            SampledChecker::new(seed, 16, 64).check(&m, &abstractions, &initial, &inputs)
        };
        assert_eq!(run(7), run(7), "leak {leak:?}: same seed, same report");
        // A different seed walks differently: the reports may agree on the
        // verdict but the checker must not silently ignore its seed.
        assert_eq!(
            run(7).is_separable(),
            run(8).is_separable(),
            "leak {leak:?}: verdict is seed-independent"
        );
    }
}

#[test]
fn bfs_order_is_stable_across_runs() {
    let m = DemoMachine::secure(4);
    let inputs = m.inputs();
    let (a, ta) = reachable_states(&m, &[m.initial()], &inputs, 100_000);
    let (b, tb) = reachable_states(&m, &[m.initial()], &inputs, 100_000);
    assert_eq!(a, b, "sequential BFS order varies between runs");
    assert_eq!(ta, tb);
    for shards in [1, 2, 4, 8] {
        let (p1, _) = par_reachable_states(&m, &[m.initial()], &inputs, 100_000, shards);
        let (p2, _) = par_reachable_states(&m, &[m.initial()], &inputs, 100_000, shards);
        assert_eq!(
            p1, p2,
            "parallel BFS order varies between runs ({shards} shards)"
        );
        assert_eq!(
            a, p1,
            "parallel order diverges from sequential ({shards} shards)"
        );
    }
}

#[test]
fn sharded_fingerprint_dedup_explores_in_the_reference_order() {
    // The sharded explorer keys its seen-set by 128-bit fingerprint, the
    // reference by full state: both must produce the identical discovery
    // order under every shard count and dedup policy — and at every
    // truncation limit, since the cut point depends on the order.
    for leak in [Leak::None, Leak::OpWritesForeign] {
        let m = DemoMachine::leaky(4, leak);
        let inputs = m.inputs();
        let full = reachable_states(&m, &[m.initial()], &inputs, 100_000).0;
        for limit in [100_000usize, full.len(), full.len() / 2, 1] {
            let (reference, ref_truncated) = reachable_states(&m, &[m.initial()], &inputs, limit);
            for shards in [1, 2, 4] {
                for dedup in [Dedup::Fingerprint, Dedup::Bloom(BloomParams::default())] {
                    let (par, stats) = par_explore(
                        &m,
                        &[m.initial()],
                        &inputs,
                        limit,
                        shards,
                        dedup,
                        &Reduction::none(),
                    );
                    assert_eq!(
                        reference, par,
                        "leak {leak:?}, limit {limit}, shards {shards}, {dedup:?}"
                    );
                    assert_eq!(ref_truncated, stats.truncated);
                }
            }
        }
    }
}

#[test]
fn truncation_flips_exactly_at_the_limit() {
    let m = DemoMachine::secure(4);
    let inputs = m.inputs();
    let (full, truncated) = reachable_states(&m, &[m.initial()], &inputs, 100_000);
    assert!(!truncated);
    let n = full.len();
    assert!(n > 2, "demo machine too small to probe limits");

    for (limit, expect_truncated, expect_len) in [
        // At the limit the explorer still reports truncation: it cannot
        // know no unexplored successor remained without expanding further.
        (n, true, Some(n)),
        (n + 1, false, Some(n)),
        // One under the limit truncates, but the exact cut length depends
        // on how many novel successors the final expansion added at once.
        (n - 1, true, None),
        (1, true, Some(1)),
        // Limit zero with a nonempty initial set: initial states are
        // admitted unconditionally, then exploration stops immediately.
        (0, true, Some(1)),
    ] {
        let (seq, t_seq) = reachable_states(&m, &[m.initial()], &inputs, limit);
        assert_eq!(t_seq, expect_truncated, "limit {limit}");
        if let Some(expect_len) = expect_len {
            assert_eq!(seq.len(), expect_len, "limit {limit}");
        }
        assert_eq!(seq, full[..seq.len()], "limit {limit}: order prefix");
        for shards in [1, 2, 4, 8] {
            let (par, t_par) = par_reachable_states(&m, &[m.initial()], &inputs, limit, shards);
            assert_eq!(seq, par, "limit {limit}, shards {shards}");
            assert_eq!(t_seq, t_par, "limit {limit}, shards {shards}");
        }
    }
}

#[test]
fn benign_reductions_preserve_demo_order() {
    // A canon hook that keys each state by its own fingerprint and an
    // ample hook that always expands everything are semantic no-ops; the
    // sharded explorer must produce the reference discovery order with
    // them installed, at every shard count.
    let m = DemoMachine::secure(4);
    let inputs = m.inputs();
    let baseline = reachable_states(&m, &[m.initial()], &inputs, 100_000).0;
    let canon = |s: &<DemoMachine as sep_model::system::SharedSystem>::State| fingerprint(s);
    let ample = |_: &_, _: &[_]| Ample::All;
    let red = Reduction {
        canon: Some(&canon),
        ample: Some(&ample),
    };
    for shards in [1, 2, 4, 8] {
        let (par, pstats) = par_explore(
            &m,
            &[m.initial()],
            &inputs,
            100_000,
            shards,
            Dedup::Fingerprint,
            &red,
        );
        assert!(!pstats.truncated);
        assert_eq!(par, baseline, "benign reduction changed order ({shards})");
        assert!(pstats.reduction.canon && pstats.reduction.ample);
        assert_eq!(
            pstats.reduction.ample_skips, 0,
            "Ample::All must skip nothing"
        );
    }
}

#[test]
fn kernel_reductions_are_shard_invariant() {
    // With symmetry + partial order genuinely pruning (the kernel's
    // symmetric workload), the discovery order and the whole stats
    // projection — state count, levels, widest frontier, truncation,
    // reduction counters — must not depend on the shard count, and every
    // explored state must be a genuinely reachable one: a member of the
    // unreduced reference set.
    let sys = KernelSystem::new(symmetric_workload(2))
        .unwrap()
        .with_input_bytes(&[1])
        .with_symmetry(true)
        .with_por(true);
    let reference: HashSet<_> = sys.states().into_iter().collect();
    let mut first: Option<(Vec<_>, _)> = None;
    for shards in [1, 2, 4, 8] {
        let (par, stats) = sys.explore_sharded(shards);
        assert!(stats.reduction.canon && stats.reduction.ample);
        assert!(stats.reduction.ample_skips > 0, "ample never engaged");
        assert!(
            par.len() < reference.len(),
            "reductions pruned nothing at {shards} shards"
        );
        assert!(
            par.iter().all(|s| reference.contains(s)),
            "reduced exploration left the reachable set at {shards} shards"
        );
        match &first {
            None => first = Some((par, projection(&stats))),
            Some((forder, fproj)) => {
                assert_eq!(&par, forder, "order varies with shard count");
                assert_eq!(&projection(&stats), fproj, "stats vary with shard count");
            }
        }
    }
}

#[test]
fn bloom_counters_are_reproducible_and_order_preserving() {
    // An undersized Bloom filter (64 bits for a ~100-state space) is
    // guaranteed false positives; they must cost only precise probes —
    // identical discovery order — and the counters must be identical run
    // to run and shard count to shard count for a fixed seed.
    let m = DemoMachine::secure(4);
    let inputs = m.inputs();
    let baseline = reachable_states(&m, &[m.initial()], &inputs, 100_000).0;
    let tiny = Dedup::Bloom(BloomParams {
        bits_log2: 6,
        hashes: 2,
        seed: 42,
    });
    let run = |shards: usize| {
        par_explore(
            &m,
            &[m.initial()],
            &inputs,
            100_000,
            shards,
            tiny,
            &Reduction::none(),
        )
    };
    let (order, stats) = run(2);
    assert_eq!(order, baseline, "Bloom pre-filter changed discovery order");
    assert!(
        stats.reduction.bloom_false_positives > 0,
        "undersized filter produced no false positives: {stats:?}"
    );
    let (order2, stats2) = run(2);
    assert_eq!(order, order2, "Bloom run not reproducible");
    assert_eq!(projection(&stats), projection(&stats2));
    for shards in [1, 4, 8] {
        let (o, s) = run(shards);
        assert_eq!(o, baseline, "shards {shards}");
        assert_eq!(
            projection(&s),
            projection(&stats),
            "Bloom counters vary with shard count ({shards})"
        );
    }
    // A different seed probes different bits: the order must still be the
    // unreduced order (the filter is advisory), even though the
    // false-positive pattern may differ.
    let (order3, _) = par_explore(
        &m,
        &[m.initial()],
        &inputs,
        100_000,
        2,
        Dedup::Bloom(BloomParams {
            bits_log2: 6,
            hashes: 2,
            seed: 43,
        }),
        &Reduction::none(),
    );
    assert_eq!(order3, baseline, "order depends on the Bloom seed");
}
