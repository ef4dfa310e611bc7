//! State-space exploration: the reference reachability oracle and sampled
//! checking.
//!
//! The exhaustive checker in [`crate::check`] needs a finite state set. For
//! small systems this can be written down; for realistic ones we compute the
//! set of states *reachable* from the initial states under all inputs
//! ([`reachable_states`]), or — when even that is too large — fall back to a
//! reproducible randomized search ([`SampledChecker`]) that checks the six
//! conditions along random walks. A sampled pass proves nothing, but in
//! practice it finds the same kernel bugs the exhaustive pass finds (see
//! experiment E2), orders of magnitude faster.
//!
//! [`reachable_states`] is deliberately naive: plain BFS with exact,
//! full-state dedup and no fingerprints, Bloom filter or reductions. It is
//! the oracle the production explorer in [`crate::parallel`] (sharded,
//! fingerprint-keyed, reduction-aware) is differentially tested against.

use crate::abstraction::Abstraction;
use crate::check::{CheckReport, Condition};
use crate::rng::SplitMix64;
use crate::system::{Projected, SharedSystem};
use std::collections::{HashMap, HashSet, VecDeque};

/// Computes the set of states reachable from `initial` by any sequence of
/// full steps (input consumption followed by operation execution), bounded
/// by `limit` states.
///
/// Returns the reachable set in discovery (BFS) order and a flag that is
/// `true` when exploration was truncated: initial states are always
/// admitted, and the limit is checked before each state is expanded, so a
/// state space of exactly `limit` states still reports truncation.
pub fn reachable_states<S: SharedSystem>(
    sys: &S,
    initial: &[S::State],
    inputs: &[S::Input],
    limit: usize,
) -> (Vec<S::State>, bool) {
    let mut seen: HashSet<S::State> = HashSet::new();
    let mut order: Vec<S::State> = Vec::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    for s in initial {
        if seen.insert(s.clone()) {
            queue.push_back(order.len());
            order.push(s.clone());
        }
    }
    while let Some(at) = queue.pop_front() {
        if order.len() >= limit {
            return (order, true);
        }
        for i in inputs {
            let (_, next) = sys.step(&order[at], i);
            if seen.insert(next.clone()) {
                queue.push_back(order.len());
                order.push(next);
            }
        }
    }
    (order, false)
}

/// A reproducible randomized checker for systems too large to enumerate.
///
/// The checker performs random walks from the initial states. At each visited
/// state it evaluates:
///
/// * conditions 1 and 2 for the operation actually selected;
/// * conditions 3–6 against previously-visited states with the same view
///   (maintained per colour in a view table).
#[derive(Debug, Clone)]
pub struct SampledChecker {
    /// PRNG seed; equal seeds give identical runs.
    pub seed: u64,
    /// Number of random walks.
    pub walks: usize,
    /// Steps per walk.
    pub steps: usize,
    /// Cap on recorded violations per condition.
    pub max_violations_per_condition: usize,
}

impl Default for SampledChecker {
    fn default() -> Self {
        SampledChecker {
            seed: 0x5E9A_4AB1,
            walks: 64,
            steps: 256,
            max_violations_per_condition: 3,
        }
    }
}

impl SampledChecker {
    /// Creates a sampled checker with the given seed and effort.
    pub fn new(seed: u64, walks: usize, steps: usize) -> Self {
        SampledChecker {
            seed,
            walks,
            steps,
            max_violations_per_condition: 3,
        }
    }

    /// Runs the sampled check.
    pub fn check<S, A>(
        &self,
        sys: &S,
        abstractions: &[A],
        initial: &[S::State],
        inputs: &[S::Input],
    ) -> CheckReport
    where
        S: Projected,
        A: Abstraction<S>,
    {
        assert!(
            !initial.is_empty(),
            "sampled check needs at least one initial state"
        );
        assert!(!inputs.is_empty(), "sampled check needs at least one input");
        let mut rng = SplitMix64::new(self.seed);
        let mut report = CheckReport::default();
        // Per abstraction: map from view to a representative (state kept for
        // condition 3/5/6 cross-checks).
        let mut view_tables: Vec<HashMap<A::AState, S::State>> =
            abstractions.iter().map(|_| HashMap::new()).collect();
        let mut visited: HashSet<S::State> = HashSet::new();

        for _ in 0..self.walks {
            let mut state = initial[rng.below(initial.len())].clone();
            for _ in 0..self.steps {
                let input = &inputs[rng.below(inputs.len())];
                self.check_state(
                    sys,
                    abstractions,
                    &state,
                    input,
                    inputs,
                    &mut view_tables,
                    &mut report,
                );
                if visited.insert(state.clone()) {
                    report.states += 1;
                }
                let (_, next) = sys.step(&state, input);
                state = next;
            }
        }
        report.inputs = inputs.len();
        report
    }

    /// Evaluates all six conditions at a single state.
    #[allow(clippy::too_many_arguments)]
    fn check_state<S, A>(
        &self,
        sys: &S,
        abstractions: &[A],
        s: &S::State,
        input: &S::Input,
        inputs: &[S::Input],
        view_tables: &mut [HashMap<A::AState, S::State>],
        report: &mut CheckReport,
    ) where
        S: Projected,
        A: Abstraction<S>,
    {
        let active = sys.colour(s);
        let mid = sys.consume(s, input);
        let op = sys.next_op(&mid);
        let after = sys.apply(&op, &mid);

        for (a, table) in abstractions.iter().zip(view_tables.iter_mut()) {
            let c = a.colour();
            let colour_str = format!("{c:?}");
            let phi_mid = a.phi(sys, &mid);
            let phi_after = a.phi(sys, &after);

            // Conditions 1 / 2 on the executed operation.
            if sys.colour(&mid) == c {
                report.checks[Condition::OpRespectsAbstraction.index()] += 1;
                let abstract_after = a.apply_abstract(sys, &a.abop(sys, &op), &phi_mid);
                if phi_after != abstract_after {
                    self.push(
                        report,
                        Condition::OpRespectsAbstraction,
                        &colour_str,
                        format!("state {mid:?}, op {op:?}: Φ(op(s)) = {phi_after:?} ≠ ABOP(op)(Φ(s)) = {abstract_after:?}"),
                    );
                }
            } else {
                report.checks[Condition::OpInvisibleToInactive.index()] += 1;
                if phi_after != phi_mid {
                    self.push(
                        report,
                        Condition::OpInvisibleToInactive,
                        &colour_str,
                        format!("state {mid:?} (active {active:?}), op {op:?} changed view {phi_mid:?} → {phi_after:?}"),
                    );
                }
            }

            // Cross-state conditions against the stored representative with
            // the same view.
            let phi_s = a.phi(sys, s);
            if let Some(rep) = table.get(&phi_s) {
                if rep != s {
                    // Condition 3.
                    report.checks[Condition::InputDependsOnlyOnView.index()] += 1;
                    let via_rep = a.phi(sys, &sys.consume(rep, input));
                    if phi_mid != via_rep {
                        self.push(
                            report,
                            Condition::InputDependsOnlyOnView,
                            &colour_str,
                            format!("states {s:?} / {rep:?} share view but input {input:?} separates them"),
                        );
                    }
                    // Condition 5.
                    report.checks[Condition::OutputDependsOnlyOnView.index()] += 1;
                    let out_s = sys.extract_output(&c, &sys.output(s));
                    let out_rep = sys.extract_output(&c, &sys.output(rep));
                    if out_s != out_rep {
                        self.push(
                            report,
                            Condition::OutputDependsOnlyOnView,
                            &colour_str,
                            format!("states {s:?} / {rep:?} share view but outputs differ: {out_s:?} vs {out_rep:?}"),
                        );
                    }
                    // Condition 6.
                    if sys.colour(s) == c && sys.colour(rep) == c {
                        report.checks[Condition::NextOpDependsOnlyOnView.index()] += 1;
                        let op_s = sys.next_op(s);
                        let op_rep = sys.next_op(rep);
                        if op_s != op_rep {
                            self.push(
                                report,
                                Condition::NextOpDependsOnlyOnView,
                                &colour_str,
                                format!("states {s:?} / {rep:?} share view but NEXTOP differs: {op_s:?} vs {op_rep:?}"),
                            );
                        }
                    }
                }
            } else {
                table.insert(phi_s, s.clone());
            }

            // Condition 4: vary the input among those with the same
            // c-component.
            let my_view = sys.extract_input(&c, input);
            for other in inputs {
                if sys.extract_input(&c, other) == my_view {
                    report.checks[Condition::InputDependsOnlyOnOwnComponent.index()] += 1;
                    let via_other = a.phi(sys, &sys.consume(s, other));
                    if via_other != phi_mid {
                        self.push(
                            report,
                            Condition::InputDependsOnlyOnOwnComponent,
                            &colour_str,
                            format!("inputs {input:?} / {other:?} agree on colour component but separate state {s:?}"),
                        );
                    }
                }
            }
        }
    }

    /// Appends a violation respecting the per-condition cap.
    fn push(&self, report: &mut CheckReport, condition: Condition, colour: &str, witness: String) {
        if report.violations_of(condition).count() < self.max_violations_per_condition {
            report.violations.push(crate::check::Violation {
                condition,
                colour: colour.to_string(),
                witness,
            });
        }
    }
}
