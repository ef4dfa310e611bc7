//! State-space reduction hooks: symmetry canonicalization, partial-order
//! ample sets, and Bloom pre-filter accounting.
//!
//! The sharded explorer in [`crate::parallel`] — the only explorer that
//! reduces; the reference explorer in [`crate::explore`] never does — is
//! generic over the shared-system model and knows nothing about regimes or
//! channels, so the reductions are injected as closures:
//!
//! * **`canon`** maps a state to the 128-bit key of its *orbit
//!   representative* under a symmetry group of the system (for the kernel:
//!   rotations of identical-image regimes). Dedup keys on the canonical
//!   fingerprint, so an orbit is explored once no matter which member is
//!   reached first. The first member discovered (in deterministic BFS
//!   order) *is* the representative kept — canonicalization changes only
//!   the key, never the stored state, so every check still runs on a
//!   genuinely reachable state.
//! * **`ample`** picks, per state, a subset of the input alphabet to
//!   expand (a partial-order *ample set*). Deferred inputs must commute
//!   with every expanded transition and remain enabled — the provider
//!   (for the kernel: [`sep-kernel`]'s footprint analysis) owns that
//!   argument; the explorer just honours the subset and falls back to the
//!   full alphabet if the subset comes back empty.
//!
//! Crucially, both reductions prune *which states get explored*, never
//! *what gets checked*: every explored state is still evaluated against
//! the full input and op alphabets by the separability conditions, so
//! per-state condition coverage is unreduced. The reduction soundness
//! suite (`reduction_differential`) pins verdicts across every on/off
//! combination against the unreduced reference explorer, and the mutant
//! matrix pins that no planted violation escapes through a pruned
//! interleaving.

use crate::system::SharedSystem;

/// The ample-set decision for one state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ample {
    /// Expand the full input alphabet (no reduction at this state).
    All,
    /// Expand only these indices into the input slice, in ascending order.
    /// An empty subset is treated as [`Ample::All`] by the explorer — a
    /// selector bug must never silently drop all successors.
    Subset(Vec<usize>),
}

impl Ample {
    /// The input indices to expand, given the full alphabet length.
    pub fn indices(&self, n: usize) -> Vec<usize> {
        match self {
            Ample::All => (0..n).collect(),
            Ample::Subset(idx) if idx.is_empty() => (0..n).collect(),
            Ample::Subset(idx) => {
                // The explorer commits successors in the order given here,
                // so an unsorted subset would reorder BFS discovery.
                debug_assert!(
                    idx.windows(2).all(|w| w[0] < w[1]),
                    "ample subset not strictly ascending: {idx:?}"
                );
                idx.clone()
            }
        }
    }
}

/// Counters reporting how much work each reduction saved (or cost).
///
/// All counters are deterministic for a fixed system, reduction
/// configuration, and (for Bloom) seed — the determinism suite pins them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReductionStats {
    /// Symmetry canonicalization was active.
    pub canon: bool,
    /// Partial-order (ample-set) reduction was active.
    pub ample: bool,
    /// Successor expansions skipped by ample sets: sum over expanded
    /// states of `|alphabet| - |ample|`.
    pub ample_skips: u64,
    /// Novel keys the Bloom filter answered "definitely new" for.
    pub bloom_negatives: u64,
    /// Novel keys the Bloom filter answered "maybe seen" for: false
    /// positives, never a soundness issue.
    pub bloom_false_positives: u64,
}

impl ReductionStats {
    /// Merge counters from another (sequentially observed) run segment.
    pub fn absorb(&mut self, other: &ReductionStats) {
        self.canon |= other.canon;
        self.ample |= other.ample;
        self.ample_skips += other.ample_skips;
        self.bloom_negatives += other.bloom_negatives;
        self.bloom_false_positives += other.bloom_false_positives;
    }
}

/// Canonical-key function: state → orbit-representative fingerprint.
pub type CanonFn<'a, S> = &'a (dyn Fn(&<S as SharedSystem>::State) -> u128 + Sync);

/// Ample-set selector: (state, full alphabet) → subset to expand.
pub type AmpleFn<'a, S> =
    &'a (dyn Fn(&<S as SharedSystem>::State, &[<S as SharedSystem>::Input]) -> Ample + Sync);

/// The reduction hooks an explorer threads through a sweep. `Reduction::none()`
/// disables everything and makes the reduced entry points behave exactly
/// like the unreduced ones.
pub struct Reduction<'a, S: SharedSystem + ?Sized> {
    /// Canonical-key function: state → orbit-representative fingerprint.
    /// `None` keys states by their own fingerprint.
    pub canon: Option<CanonFn<'a, S>>,
    /// Ample-set selector: (state, full alphabet) → subset to expand.
    /// `None` expands the full alphabet everywhere.
    pub ample: Option<AmpleFn<'a, S>>,
}

impl<S: SharedSystem + ?Sized> Reduction<'_, S> {
    /// No reduction: explore exactly as the unreduced entry points do.
    pub fn none() -> Self {
        Reduction {
            canon: None,
            ample: None,
        }
    }

    /// Whether any hook is installed.
    pub fn is_active(&self) -> bool {
        self.canon.is_some() || self.ample.is_some()
    }
}

impl<S: SharedSystem + ?Sized> Default for Reduction<'_, S> {
    fn default() -> Self {
        Reduction::none()
    }
}

impl<S: SharedSystem + ?Sized> Clone for Reduction<'_, S> {
    fn clone(&self) -> Self {
        Reduction {
            canon: self.canon,
            ample: self.ample,
        }
    }
}

impl<S: SharedSystem + ?Sized> std::fmt::Debug for Reduction<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reduction")
            .field("canon", &self.canon.is_some())
            .field("ample", &self.ample.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::DemoMachine;

    #[test]
    fn ample_all_and_empty_subset_expand_everything() {
        assert_eq!(Ample::All.indices(3), vec![0, 1, 2]);
        assert_eq!(Ample::Subset(vec![]).indices(3), vec![0, 1, 2]);
        assert_eq!(Ample::Subset(vec![1]).indices(3), vec![1]);
    }

    #[test]
    fn none_reduction_is_inactive() {
        let r = Reduction::<DemoMachine>::none();
        assert!(!r.is_active());
        assert!(r.canon.is_none() && r.ample.is_none());
    }

    #[test]
    fn stats_absorb_sums_counters() {
        let mut a = ReductionStats {
            canon: true,
            ample: false,
            ample_skips: 3,
            bloom_negatives: 10,
            bloom_false_positives: 1,
        };
        let b = ReductionStats {
            canon: false,
            ample: true,
            ample_skips: 2,
            bloom_negatives: 5,
            bloom_false_positives: 0,
        };
        a.absorb(&b);
        assert!(a.canon && a.ample);
        assert_eq!(a.ample_skips, 5);
        assert_eq!(a.bloom_negatives, 15);
        assert_eq!(a.bloom_false_positives, 1);
    }
}
