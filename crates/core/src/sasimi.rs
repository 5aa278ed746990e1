//! SASIMI — the *substitute-and-simplify* baseline (Venkataramani et al.,
//! DATE'13), as configured in the DAC'16 paper's comparison.
//!
//! SASIMI's idea: find **signal pairs** `(target, substitute)` that agree on
//! almost all input vectors, replace the target with the substitute (possibly
//! inverted), and let the network simplify. The DAC'16 comparison disables
//! SASIMI's timing handling and gate downsizing so it optimizes area only;
//! this implementation reproduces that configuration.
//!
//! Candidate generation compares all signal pairs — quadratic in the signal
//! count, which is exactly why the paper's node-local algorithms are faster
//! (their complexity is linear in the node count).

use crate::report::{AlsOutcome, IterationRecord, SelectedChange};
use crate::{AlsConfig, AlsContext};
use als_logic::{Cover, Cube};
use als_network::{Network, NodeId};
use als_sim::SimView;
use als_telemetry::{Event, MetricsCollector, Telemetry};
use std::cmp::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// A candidate substitution: drive every user of `target` with `substitute`
/// (inverted when `inverted` is set).
#[derive(Clone, Copy, Debug)]
struct Candidate {
    target: NodeId,
    substitute: Option<NodeId>, // None = constant
    constant: bool,
    inverted: bool,
    difference: u64,
    score: f64,
}

/// How many top-ranked candidates are trial-applied per iteration before
/// SASIMI gives up (each trial costs a simulation).
const TRIALS_PER_ITERATION: usize = 25;

/// Runs SASIMI on `original` under the error-rate threshold in `config`.
///
/// Shared knobs (`num_patterns`, `seed`, `threshold`, `max_iterations`) are
/// honoured; the ASE- and don't-care-related options do not apply. Prefer
/// [`approximate`](crate::approximate) with
/// [`Strategy::Sasimi`](crate::Strategy::Sasimi) for the non-panicking
/// entry point.
///
/// # Panics
///
/// Panics if the input network fails its consistency check.
pub fn sasimi(original: &Network, config: &AlsConfig) -> AlsOutcome {
    original.check().expect("input network must be consistent"); // lint:allow(panic): documented panic contract; `approximate()` is the fallible entry
    let ctx = AlsContext::new(original, config);
    sasimi_with_context(original, config, ctx)
}

pub(crate) fn sasimi_with_context(
    original: &Network,
    config: &AlsConfig,
    ctx: AlsContext,
) -> AlsOutcome {
    // lint:allow(nondeterminism): feeds telemetry wall-clock only, never the synthesis outcome
    let start = Instant::now();
    original.check().expect("input network must be consistent"); // lint:allow(panic): documented panic contract; `approximate()` is the fallible entry
    let initial_literals = original.literal_count();

    // Same sink arrangement as the paper's algorithms, so the baseline's
    // runs are directly comparable in the perf records.
    let collector = Arc::new(MetricsCollector::new());
    let mut config = config.clone();
    config.telemetry = config.telemetry.clone().with(collector.clone());
    let config = &config;
    let ctx = ctx
        .with_telemetry(config.telemetry.clone())
        .with_sampling(config);

    config.telemetry.emit(|| Event::RunStart {
        algorithm: "sasimi",
        threads: 1, // the baseline's pairwise search is sequential
        num_patterns: ctx.patterns().num_patterns(),
        nodes: original.num_internal(),
        threshold: config.threshold,
        seed: config.seed,
    });

    let mut current = original.clone();
    // The persistent incremental simulation state; trial substitutions are
    // resimulated through dirty-set updates and rolled back when rejected.
    let mut inc = ctx.incremental(&current);
    inc.set_full_resim(config.resim.is_full());
    let mut error_rate = ctx.measure_view(&current, inc.view());
    let mut iterations: Vec<IterationRecord> = Vec::new();

    for iteration in 1..=config.max_iterations {
        let margin = config.threshold - error_rate;
        if margin < 0.0 {
            break;
        }
        // Cooperative cancellation: the network already satisfies the
        // threshold at every iteration boundary, so stopping here is sound.
        if config.cancel.is_cancelled() {
            break;
        }
        let iter_mark = config.telemetry.start();
        let candidates = generate_candidates(&current, inc.view(), &ctx, margin);
        let mut committed = false;
        for cand in candidates {
            let mut trial = current.clone();
            // The dirty set, captured pre-apply: a constant replacement
            // rewrites the target in place; a substitution rebuilds the
            // covers of every user (the target itself is swept, and a new
            // inverter is picked up as a newly-live slot).
            let dirty: Vec<NodeId> = if cand.substitute.is_none() {
                vec![cand.target]
            } else {
                trial.fanouts()[cand.target.index()].clone()
            };
            let description = apply(&mut trial, &cand);
            // Resimulate and decide under one undo span (same protocol as
            // multi-selection): the dirty set is resimulated before constant
            // propagation, liveness reconciled on the swept structure; under
            // adaptive sampling a bad trial is rejected from a prefix.
            let Some(new_error_rate) =
                ctx.update_and_accept(&mut inc, &mut trial, &dirty, true, config)
            else {
                inc.rollback();
                continue;
            };
            let saved = current
                .literal_count()
                .saturating_sub(trial.literal_count());
            if saved == 0 {
                inc.rollback();
                continue;
            }
            inc.commit();
            error_rate = new_error_rate;
            let literals_after = trial.literal_count();
            // A substitution flips an output only on a vector where target
            // and substitute disagree, so the pairwise difference rate is
            // this change's apparent rate in the Theorem-1 sense.
            let apparent = cand.difference as f64 / ctx.patterns().num_patterns() as f64; // lint:allow(as-cast): counts << 2^52, exact in f64
            debug_assert!(
                trial.check().is_ok(),
                "network inconsistent after sasimi substitution: {:?}",
                trial.check()
            );
            config.telemetry.emit(|| Event::ChangeCommitted {
                iteration: iteration as u64, // lint:allow(as-cast): usize fits u64 on all supported targets
                node: description.clone(),
                ase: String::from("substitution"),
                literals_saved: saved as u64, // lint:allow(as-cast): usize fits u64 on all supported targets
                apparent,
                // SASIMI's pairwise search never runs the static analysis.
                static_lo: None,
                static_hi: None,
            });
            iterations.push(IterationRecord {
                iteration,
                changes: vec![SelectedChange {
                    node_name: description,
                    ase: String::from("substitution"),
                    literals_saved: saved,
                    error_estimate: apparent,
                    apparent,
                }],
                literals_after,
                error_rate_after: error_rate,
            });
            current = trial;
            committed = true;
            config.telemetry.emit(|| Event::IterationEnd {
                iteration: iteration as u64, // lint:allow(as-cast): usize fits u64 on all supported targets
                changes: 1,
                literals: literals_after as u64, // lint:allow(as-cast): usize fits u64 on all supported targets
                error_rate,
                nanos: Telemetry::nanos_since(iter_mark),
            });
            break;
        }
        if !committed {
            break;
        }
    }

    debug_assert!(current.check().is_ok());
    let final_literals = current.literal_count();
    config.telemetry.emit(|| Event::RunEnd {
        iterations: iterations.len() as u64, // lint:allow(as-cast): usize fits u64 on all supported targets
        literals: final_literals as u64, // lint:allow(as-cast): usize fits u64 on all supported targets
        error_rate,
        nanos: start.elapsed().as_nanos() as u64, // lint:allow(as-cast): run duration << 584 years
    });
    AlsOutcome {
        final_literals,
        measured_error_rate: error_rate,
        network: current,
        iterations,
        initial_literals,
        runtime: start.elapsed(),
        metrics: collector.report(),
    }
}

/// The [`TRIALS_PER_ITERATION`] best substitution candidates, ranked by
/// `literals-freed / error` over every ordered signal pair (in both phases)
/// and the two constants. Signal signatures come from the caller's
/// (incremental) view — no fresh simulation.
///
/// The pairwise scan ([`scan`]) is the `O(signals² × words)` bulk of
/// SASIMI's runtime. It ranks only what the trial loop reads: zero-difference
/// candidates come from a signature-equivalence pre-pass, and the remaining
/// slots from a scan whose mismatch bound tightens as the ranked list
/// fills. Every rejection is exact, so the result equals the first
/// [`TRIALS_PER_ITERATION`] entries of the stably sorted full candidate list.
fn generate_candidates(
    net: &Network,
    sim: SimView<'_>,
    ctx: &AlsContext,
    margin: f64,
) -> Vec<Candidate> {
    let mark = ctx.telemetry_mark();
    let num_patterns = ctx.patterns().num_patterns() as u64; // lint:allow(as-cast): usize fits u64 on all supported targets
    let allowed = (margin * num_patterns as f64).floor() as u64; // lint:allow(as-cast): margin >= 0 and the product <= num_patterns
    let (out, stats) = scan(net, sim, num_patterns, allowed, TRIALS_PER_ITERATION);
    let width = sim.words_per_signal() as u64; // lint:allow(as-cast): usize fits u64 on all supported targets
    ctx.record_similarity_scan(
        stats.pairs,
        stats.popcount_rejects + stats.prefix_rejects,
        stats.words + stats.equality_checks * width,
        stats.pairs * width,
        mark,
    );
    out
}

/// Work counters of one [`scan`].
#[derive(Clone, Copy, Debug, Default)]
struct ScanStats {
    /// Ordered (target, substitute) pairs the bounded scan examined.
    pairs: u64,
    /// Pairs rejected on their signals' popcounts, reading no word.
    popcount_rejects: u64,
    /// Pairs rejected from a signature-word prefix.
    prefix_rejects: u64,
    /// Signature words the bounded scan read (per signal of a pair).
    words: u64,
    /// Full-width signature comparisons of the equal-signature pre-pass.
    equality_checks: u64,
}

/// The rank order of the candidate list: score descending, then difference
/// ascending. A stable sort by it keeps scan order among ties.
fn rank(a: &Candidate, b: &Candidate) -> Ordering {
    b.score
        .total_cmp(&a.score)
        .then(a.difference.cmp(&b.difference))
}

/// The first `k` candidates within `allowed` mismatching patterns of the
/// candidate list stably sorted by [`rank`], where the unsorted list is in
/// scan order: target-major, substitute-minor, the two constants first,
/// the same phase before the inverted one. `k = usize::MAX` is the full
/// ranked list.
///
/// Every zero-difference candidate ranks `(∞, 0)`, above every other, so
/// the first ones in scan order lead the list; [`zero_difference_candidates`]
/// finds them from signature classes. If fewer than `k` exist, the rest of
/// the list is the best nonzero candidates, kept in a list bounded at the
/// remaining slots. Once that list is full its last entry is the bar: a
/// later candidate enters only when its `(score, difference)` beats the bar
/// strictly (an equal one comes later in scan order, so the stable sort
/// places it after). [`score`] is monotone in the difference, so each phase
/// of a target has a largest admissible mismatch count, and that bound —
/// tightened after every insertion — replaces `allowed` in the rejections.
///
/// A pair is rejected without reading a word when its popcounts rule out
/// both phases. The mismatch count of `t` and `s` is at least
/// `|ones_t − ones_s|`, and the inverted phase's mismatch count `N − diff`
/// is at least `|ones_t − (N − ones_s)|`. Tail bits are canonically zero, so
/// the popcounts are exact. Every other pair is probed from a one-word
/// prefix that doubles only while the pair could still enter in some phase
/// ([`SimView::difference_probe`]).
fn scan(
    net: &Network,
    sim: SimView<'_>,
    num_patterns: u64,
    allowed: u64,
    k: usize,
) -> (Vec<Candidate>, ScanStats) {
    let targets: Vec<NodeId> = net
        .internal_ids()
        .filter(|&id| !net.node(id).is_constant())
        .collect();
    let mut all_signals: Vec<NodeId> = net.pis().to_vec();
    all_signals.extend(targets.iter().copied());

    let fanouts = net.fanouts();
    let mut ones = vec![0u64; fanouts.len()];
    for &s in &all_signals {
        ones[s.index()] = sim.count_ones(s);
    }
    let (zeros, equality_checks) =
        zero_difference_candidates(net, sim, num_patterns, &all_signals, &ones, &fanouts, k);
    let mut stats = ScanStats {
        equality_checks,
        ..ScanStats::default()
    };
    if zeros.len() == k {
        return (zeros, stats);
    }

    let mut tfo = TfoMarks::new(fanouts.len());
    let mut ranked = Ranked {
        slots: k - zeros.len(),
        list: Vec::new(),
        num_patterns,
        allowed,
    };
    for &t in &targets {
        // Deleting t frees its literals (more after simplification; this is
        // the ranking heuristic, the trial measures reality). The inverted
        // phase costs an extra inverter literal, so it is only ever
        // considered when freed > 1.
        let freed = net.node(t).literal_count();
        let mut bounds = ranked.bounds(freed);
        // Constants: cost of t being 1 with probability ~0 or ~1.
        let ones_t = ones[t.index()];
        for (constant, diff) in [(false, ones_t), (true, num_patterns - ones_t)] {
            if diff > 0 && bounds.same.is_some_and(|m| diff <= m) {
                ranked.insert(Candidate {
                    target: t,
                    substitute: None,
                    constant,
                    inverted: false,
                    difference: diff,
                    score: score(freed, diff, num_patterns),
                });
                bounds = ranked.bounds(freed);
            }
        }
        if bounds.is_empty() {
            continue;
        }
        tfo.mark(&fanouts, t);
        for &s in &all_signals {
            if tfo.contains(s) {
                continue; // self or would create a cycle
            }
            stats.pairs += 1;
            let ones_s = ones[s.index()];
            if bounds.same.is_none_or(|m| ones_t.abs_diff(ones_s) > m)
                && bounds
                    .inverted
                    .is_none_or(|m| (ones_t + ones_s).abs_diff(num_patterns) > m)
            {
                stats.popcount_rejects += 1;
                continue;
            }
            let probe = sim.difference_probe(t, s, bounds.same, bounds.inverted);
            stats.words += probe.words_scanned;
            if probe.early_exit {
                stats.prefix_rejects += 1;
                continue;
            }
            let diff = probe.count;
            // Same phase.
            if diff > 0 && bounds.same.is_some_and(|m| diff <= m) {
                ranked.insert(Candidate {
                    target: t,
                    substitute: Some(s),
                    constant: false,
                    inverted: false,
                    difference: diff,
                    score: score(freed, diff, num_patterns),
                });
                bounds = ranked.bounds(freed);
            }
            // Inverted phase (costs one extra inverter literal).
            let inv_diff = num_patterns - diff;
            if inv_diff > 0 && bounds.inverted.is_some_and(|m| inv_diff <= m) {
                ranked.insert(Candidate {
                    target: t,
                    substitute: Some(s),
                    constant: false,
                    inverted: true,
                    difference: inv_diff,
                    score: score(freed - 1, inv_diff, num_patterns),
                });
                bounds = ranked.bounds(freed);
            }
            if bounds.is_empty() {
                break; // no later pair of this target can enter
            }
        }
    }
    let mut out = zeros;
    out.extend(ranked.list);
    (out, stats)
}

/// One target's TFO (itself included), marked into a reused buffer and
/// cleared through the list of nodes it touched.
struct TfoMarks {
    in_tfo: Vec<bool>,
    touched: Vec<NodeId>,
}

impl TfoMarks {
    fn new(slots: usize) -> Self {
        TfoMarks {
            in_tfo: vec![false; slots],
            touched: Vec::new(),
        }
    }

    fn mark(&mut self, fanouts: &[Vec<NodeId>], t: NodeId) {
        for &n in &self.touched {
            self.in_tfo[n.index()] = false;
        }
        self.touched.clear();
        self.touched.push(t);
        self.in_tfo[t.index()] = true;
        let mut next = 0;
        while let Some(&n) = self.touched.get(next) {
            next += 1;
            for &u in &fanouts[n.index()] {
                if !std::mem::replace(&mut self.in_tfo[u.index()], true) {
                    self.touched.push(u);
                }
            }
        }
    }

    fn contains(&self, s: NodeId) -> bool {
        self.in_tfo[s.index()]
    }
}

/// The first `k` zero-difference candidates in scan order: a constant for
/// a target that is constant over the patterns, and every signal outside
/// the target's TFO with an identical signature, or (when the target frees
/// more than one literal) a complementary one. Also returns how many
/// full-width signature comparisons it made.
///
/// Signals are sorted by (popcount, signature), scan position breaking
/// ties, so the signals of one signature form a run in scan order. A
/// complement is found by binary search on (popcount, first word) and
/// confirmed word by word. Tail bits are canonically zero, so the
/// complement flips every bit but the tail; for a one-word signature its
/// first word is masked by the tail mask too. Only targets with a match
/// walk their TFO.
fn zero_difference_candidates(
    net: &Network,
    sim: SimView<'_>,
    num_patterns: u64,
    all_signals: &[NodeId],
    ones: &[u64],
    fanouts: &[Vec<NodeId>],
    k: usize,
) -> (Vec<Candidate>, u64) {
    let num_pis = net.pis().len();
    let wps = sim.words_per_signal();
    // The word-wise XOR that turns a signature into its complement.
    let flip = |w: usize| {
        if w + 1 == wps {
            sim.tail_mask()
        } else {
            u64::MAX
        }
    };
    let signature = |i: usize| sim.node_words(all_signals[i]);
    let keys: Vec<(u64, u64)> = (0..all_signals.len())
        .map(|i| (ones[all_signals[i].index()], signature(i)[0]))
        .collect();
    let mut order: Vec<usize> = (0..all_signals.len()).collect();
    order.sort_unstable_by(|&a, &b| {
        keys[a]
            .cmp(&keys[b])
            .then_with(|| signature(a).cmp(signature(b)))
            .then(a.cmp(&b))
    });
    let mut checks = 0u64;
    // `run_start[j]`: where the run of `order[j]`'s signature begins.
    let mut run_start = vec![0usize; order.len()];
    for j in 1..order.len() {
        let (a, b) = (order[j - 1], order[j]);
        let same = keys[a] == keys[b] && {
            checks += 1;
            signature(a) == signature(b)
        };
        run_start[j] = if same { run_start[j - 1] } else { j };
    }
    let run = |start: usize| {
        let len = run_start[start..]
            .iter()
            .take_while(|&&r| r == start)
            .count();
        &order[start..start + len]
    };
    let mut rank = vec![0usize; order.len()];
    for (j, &i) in order.iter().enumerate() {
        rank[i] = j;
    }

    let mut tfo = TfoMarks::new(ones.len());
    let mut out: Vec<Candidate> = Vec::new();
    let mut matches: Vec<(usize, bool)> = Vec::new();
    for (i, &t) in all_signals.iter().enumerate().skip(num_pis) {
        if out.len() >= k {
            break;
        }
        let freed = net.node(t).literal_count();
        let ones_t = ones[t.index()];
        if ones_t == 0 || ones_t == num_patterns {
            out.push(Candidate {
                target: t,
                substitute: None,
                constant: ones_t != 0,
                inverted: false,
                difference: 0,
                score: score(freed, 0, num_patterns),
            });
        }
        let same = run(run_start[rank[i]]);
        let mut inverted: &[usize] = &[];
        if freed > 1 {
            let words = signature(i);
            let wanted = (num_patterns - ones_t, words[0] ^ flip(0));
            let mut j = order.partition_point(|&c| keys[c] < wanted);
            while j < order.len() && keys[order[j]] == wanted {
                checks += 1;
                let members = run(j);
                if signature(order[j])
                    .iter()
                    .zip(words)
                    .enumerate()
                    .all(|(w, (x, y))| x ^ y == flip(w))
                {
                    inverted = members;
                    break;
                }
                j += members.len();
            }
        }
        if same.len() < 2 && inverted.is_empty() {
            continue;
        }
        tfo.mark(fanouts, t);
        matches.clear();
        for (members, inv) in [(same, false), (inverted, true)] {
            matches.extend(
                members
                    .iter()
                    .filter(|&&m| !tfo.contains(all_signals[m]))
                    .map(|&m| (m, inv)),
            );
        }
        matches.sort_unstable();
        out.extend(matches.iter().map(|&(m, inverted)| Candidate {
            target: t,
            substitute: Some(all_signals[m]),
            constant: false,
            inverted,
            difference: 0,
            score: score(freed - usize::from(inverted), 0, num_patterns),
        }));
    }
    out.truncate(k);
    (out, checks)
}

/// The largest admissible mismatch count of each phase of one target:
/// `None` when no count can enter the ranked list.
#[derive(Clone, Copy)]
struct Bounds {
    same: Option<u64>,
    inverted: Option<u64>,
}

impl Bounds {
    fn is_empty(&self) -> bool {
        self.same.is_none() && self.inverted.is_none()
    }
}

/// The best nonzero-difference candidates, sorted by [`rank`] and bounded
/// at `slots` entries; ties keep insertion (scan) order.
struct Ranked {
    slots: usize,
    list: Vec<Candidate>,
    num_patterns: u64,
    allowed: u64,
}

impl Ranked {
    /// Inserts `cand` after every entry that ranks no lower, dropping the
    /// entry pushed past the last slot.
    fn insert(&mut self, cand: Candidate) {
        let at = self
            .list
            .partition_point(|c| rank(c, &cand) != Ordering::Greater);
        if at < self.slots {
            self.list.insert(at, cand);
            self.list.truncate(self.slots);
        }
    }

    /// The bounds of a target freeing `freed` literals against the current
    /// bar (the last entry of a full list).
    fn bounds(&self, freed: usize) -> Bounds {
        let bar = self
            .list
            .last()
            .filter(|_| self.list.len() == self.slots)
            .map(|c| (c.score, c.difference));
        Bounds {
            same: self.admissible(freed, bar),
            inverted: (freed > 1)
                .then(|| self.admissible(freed - 1, bar))
                .flatten(),
        }
    }

    /// The largest `d` in `1..=allowed` whose candidate freeing `freed`
    /// literals beats `bar` strictly. Beating is a prefix property of `d`:
    /// [`score`] never rises with `d`, so a smaller `d` scores no lower and,
    /// at an equal score, has the smaller difference.
    fn admissible(&self, freed: usize, bar: Option<(f64, u64)>) -> Option<u64> {
        let beats = |d: u64| {
            bar.is_none_or(|(bar_score, bar_diff)| {
                bar_score
                    .total_cmp(&score(freed, d, self.num_patterns))
                    .then(d.cmp(&bar_diff))
                    == Ordering::Less
            })
        };
        if self.allowed == 0 || !beats(1) {
            return None;
        }
        let (mut lo, mut hi) = (1, self.allowed);
        while lo < hi {
            let mid = lo + (hi - lo).div_ceil(2);
            if beats(mid) {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        Some(lo)
    }
}

fn score(freed: usize, diff: u64, num_patterns: u64) -> f64 {
    let rate = diff as f64 / num_patterns as f64; // lint:allow(as-cast): counts << 2^52, exact in f64
    if rate <= 0.0 {
        f64::INFINITY
    } else {
        freed as f64 / rate // lint:allow(as-cast): counts << 2^52, exact in f64
    }
}

/// Applies a candidate to the network, returning a human-readable label.
fn apply(net: &mut Network, cand: &Candidate) -> String {
    let target_name = net.node(cand.target).name().to_string();
    match cand.substitute {
        None => {
            net.replace_with_constant(cand.target, cand.constant);
            format!("{target_name} ← const {}", u8::from(cand.constant))
        }
        Some(s) => {
            let source_name = net.node(s).name().to_string();
            if cand.inverted {
                let inv = net.add_node(
                    format!("{target_name}_inv"),
                    vec![s],
                    Cover::from_cubes(
                        1,
                        [Cube::from_literals(&[(0, false)]).expect("single negative literal")], // lint:allow(panic): cube literals are valid by construction
                    ),
                );
                net.substitute(cand.target, inv);
                format!("{target_name} ← {source_name}'")
            } else {
                net.substitute(cand.target, s);
                format!("{target_name} ← {source_name}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PatternPolicy;
    use als_sim::{simulate, PatternSet};

    /// The scan before popcount rejection, policy-independent probing and
    /// top-k ranking: one `tfo_mask` per target, a full-width
    /// `difference_count` per pair and a stable sort of every candidate.
    /// The top-k scan must return a prefix of the same ranked `Vec`.
    fn brute_force_candidates(
        net: &Network,
        sim: SimView<'_>,
        num_patterns: u64,
        allowed: u64,
    ) -> Vec<Candidate> {
        let targets: Vec<NodeId> = net
            .internal_ids()
            .filter(|&id| !net.node(id).is_constant())
            .collect();
        let mut all_signals: Vec<NodeId> = net.pis().to_vec();
        all_signals.extend(targets.iter().copied());
        let mut out: Vec<Candidate> = Vec::new();
        for &t in &targets {
            let freed = net.node(t).literal_count();
            let tfo = net.tfo_mask(t);
            let ones = sim.count_ones(t);
            for (constant, diff) in [(false, ones), (true, num_patterns - ones)] {
                if diff <= allowed {
                    out.push(Candidate {
                        target: t,
                        substitute: None,
                        constant,
                        inverted: false,
                        difference: diff,
                        score: score(freed, diff, num_patterns),
                    });
                }
            }
            for &s in &all_signals {
                if s == t || tfo[s.index()] {
                    continue;
                }
                let diff = sim.difference_count(t, s);
                if diff <= allowed {
                    out.push(Candidate {
                        target: t,
                        substitute: Some(s),
                        constant: false,
                        inverted: false,
                        difference: diff,
                        score: score(freed, diff, num_patterns),
                    });
                }
                let inv_diff = num_patterns - diff;
                if inv_diff <= allowed && freed > 1 {
                    out.push(Candidate {
                        target: t,
                        substitute: Some(s),
                        constant: false,
                        inverted: true,
                        difference: inv_diff,
                        score: score(freed - 1, inv_diff, num_patterns),
                    });
                }
            }
        }
        out.sort_by(|a, b| {
            b.score
                .total_cmp(&a.score)
                .then(a.difference.cmp(&b.difference))
        });
        out
    }

    /// Everything a candidate carries, with the score as its bits.
    fn key(c: &Candidate) -> (NodeId, Option<NodeId>, bool, bool, u64, u64) {
        (
            c.target,
            c.substitute,
            c.constant,
            c.inverted,
            c.difference,
            c.score.to_bits(),
        )
    }

    /// A random layered network of 2-input AND/OR/XOR/NOR gates (the
    /// recipe of the root package's random-network property tests), drawn
    /// from a xorshift stream.
    fn random_network(seed: u64, num_pis: usize, gates: usize) -> Network {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            usize::try_from(state % 1024).unwrap()
        };
        let mut net = Network::new("random");
        let mut signals: Vec<NodeId> = (0..num_pis).map(|i| net.add_pi(format!("x{i}"))).collect();
        for idx in 0..gates {
            let a = signals[next() % signals.len()];
            let b = signals[next() % signals.len()];
            if a == b {
                continue;
            }
            let cubes: Vec<Cube> = match next() % 4 {
                0 => vec![Cube::from_literals(&[(0, true), (1, true)]).unwrap()],
                1 => vec![
                    Cube::from_literals(&[(0, true)]).unwrap(),
                    Cube::from_literals(&[(1, true)]).unwrap(),
                ],
                2 => vec![
                    Cube::from_literals(&[(0, true), (1, false)]).unwrap(),
                    Cube::from_literals(&[(0, false), (1, true)]).unwrap(),
                ],
                _ => vec![Cube::from_literals(&[(0, false), (1, false)]).unwrap()],
            };
            let id = net.add_node(format!("g{idx}"), vec![a, b], Cover::from_cubes(2, cubes));
            signals.push(id);
        }
        for (i, &s) in signals.iter().rev().take(2).enumerate() {
            net.add_po(format!("y{i}"), s);
        }
        net
    }

    /// `random_network` plus signals only the pre-pass ranks: for every
    /// third gate a duplicate (same fanins and cover) and the duplicate's
    /// inverter — a complement of the gate outside its TFO — and two
    /// constant-valued gates, `x0·x0'` and `x0 + x0'`.
    fn injected_network(seed: u64, num_pis: usize, gates: usize) -> Network {
        let mut net = random_network(seed, num_pis, gates);
        let inverter = || Cover::from_cubes(1, [Cube::from_literals(&[(0, false)]).unwrap()]);
        let originals: Vec<NodeId> = net.internal_ids().collect();
        for (i, &g) in originals.iter().enumerate() {
            if (i as u64 + seed) % 3 != 0 {
                continue;
            }
            let (fanins, cover) = (net.node(g).fanins().to_vec(), net.node(g).cover().clone());
            let dup = net.add_node(format!("d{i}"), fanins, cover);
            let inv = net.add_node(format!("n{i}"), vec![dup], inverter());
            net.add_po(format!("pd{i}"), dup);
            net.add_po(format!("pn{i}"), inv);
        }
        let x0 = net.pis()[0];
        let nx0 = net.add_node("nx0", vec![x0], inverter());
        let zero = net.add_node(
            "zero",
            vec![x0, nx0],
            Cover::from_cubes(2, [Cube::from_literals(&[(0, true), (1, true)]).unwrap()]),
        );
        let one = net.add_node(
            "one",
            vec![x0, nx0],
            Cover::from_cubes(
                2,
                [
                    Cube::from_literals(&[(0, true)]).unwrap(),
                    Cube::from_literals(&[(1, true)]).unwrap(),
                ],
            ),
        );
        net.add_po("pzero", zero);
        net.add_po("pone", one);
        net
    }

    /// How often each path of the top-k scan ran over a test grid.
    #[derive(Default)]
    struct Tally {
        stats: ScanStats,
        /// Scans whose first `TRIALS_PER_ITERATION` were all zero-difference.
        prepass_exits: usize,
        /// Bounded scans whose bar filled and that read fewer words than
        /// the full scan.
        bar_savings: usize,
        /// Inverted zero-difference candidates in a top-k result.
        inverted_zeros: usize,
        /// Cuts at which the last kept and the first dropped nonzero
        /// candidate tie on (score, difference), so scan order decides.
        cut_ties: usize,
        /// Inverted candidates of any difference in the full lists.
        inverted: usize,
    }

    /// Checks the top-k scan against the full-width oracle on one network
    /// over the grid of pattern sets, thresholds and pattern policies.
    fn check_against_the_oracle(net: &Network, seed: u64, tally: &mut Tally) {
        // Explicit vector sets off the 64-pattern word grid (their final
        // word is partial; 40 patterns fit in one word), and a random set
        // on it.
        let vectors: Vec<u64> = (0..1000u64)
            .map(|i| (i * 0x9E37_79B9 + seed).rotate_left((i % 61) as u32))
            .collect();
        for patterns in [
            PatternSet::from_vectors(net.num_pis(), &vectors[..40]),
            PatternSet::from_vectors(net.num_pis(), &vectors[..100]),
            PatternSet::from_vectors(net.num_pis(), &vectors),
            PatternSet::random(net.num_pis(), 2048, seed),
        ] {
            let num_patterns = patterns.num_patterns();
            let sim = simulate(net, &patterns);
            let view = sim.view();
            let n = num_patterns as u64;
            for threshold in [0.0, 0.001, 0.01, 0.05, 0.3] {
                let allowed = (threshold * n as f64).floor() as u64;
                let oracle = brute_force_candidates(net, view, n, allowed);
                let context =
                    format!("seed {seed}, {num_patterns} patterns, threshold {threshold}");
                let top = |k: usize| oracle.iter().take(k).map(key).collect::<Vec<_>>();
                for policy in [
                    PatternPolicy::Fixed(num_patterns),
                    PatternPolicy::Adaptive {
                        min: 64.min(num_patterns),
                        max: num_patterns,
                    },
                ] {
                    let config = AlsConfig::builder()
                        .threshold(threshold)
                        .patterns(policy)
                        .build()
                        .unwrap();
                    let ctx =
                        AlsContext::with_patterns(net, patterns.clone()).with_sampling(&config);
                    let got = generate_candidates(net, view, &ctx, threshold);
                    assert_eq!(
                        got.iter().map(key).collect::<Vec<_>>(),
                        top(TRIALS_PER_ITERATION),
                        "{context}, {policy:?}"
                    );
                }
                let (full, full_stats) = scan(net, view, n, allowed, usize::MAX);
                assert_eq!(
                    full.iter().map(key).collect::<Vec<_>>(),
                    top(usize::MAX),
                    "{context}, full scan"
                );
                for k in [1, 3, TRIALS_PER_ITERATION] {
                    let (got, stats) = scan(net, view, n, allowed, k);
                    assert_eq!(
                        got.iter().map(key).collect::<Vec<_>>(),
                        top(k),
                        "{context}, k = {k}"
                    );
                    let zeros = oracle.iter().filter(|c| c.difference == 0).count();
                    if zeros >= k {
                        continue;
                    }
                    if oracle.len() > k && stats.words < full_stats.words {
                        tally.bar_savings += 1;
                    }
                    if let Some([last, first_dropped]) = oracle.get(k - 1..=k) {
                        if rank(last, first_dropped) == Ordering::Equal && last.difference > 0 {
                            tally.cut_ties += 1;
                        }
                    }
                }
                let top_k = &oracle[..oracle.len().min(TRIALS_PER_ITERATION)];
                if top_k.len() == TRIALS_PER_ITERATION && top_k.iter().all(|c| c.difference == 0) {
                    tally.prepass_exits += 1;
                }
                tally.inverted_zeros += top_k
                    .iter()
                    .filter(|c| c.inverted && c.difference == 0)
                    .count();
                tally.inverted += oracle.iter().filter(|c| c.inverted).count();
                tally.stats.pairs += full_stats.pairs;
                tally.stats.popcount_rejects += full_stats.popcount_rejects;
                tally.stats.prefix_rejects += full_stats.prefix_rejects;
            }
        }
    }

    #[test]
    fn exact_scan_matches_the_full_width_oracle() {
        let mut tally = Tally::default();
        for seed in 1..=40u64 {
            let net = random_network(seed, 4 + (seed % 4) as usize, 6 + (seed % 14) as usize);
            check_against_the_oracle(&net, seed, &mut tally);
        }
        let totals = tally.stats;
        assert!(
            totals.popcount_rejects > 0,
            "no pair was rejected by popcount"
        );
        assert!(
            totals.prefix_rejects > 0,
            "no pair was rejected from a prefix"
        );
        assert!(
            tally.inverted > 0,
            "no inverted candidate was ever produced"
        );
        assert!(totals.popcount_rejects + totals.prefix_rejects < totals.pairs);
    }

    #[test]
    fn top_k_scan_matches_the_oracle_with_injected_equivalent_signals() {
        let mut tally = Tally::default();
        for seed in 1..=40u64 {
            let net = injected_network(seed, 4 + (seed % 4) as usize, 6 + (seed % 30) as usize);
            check_against_the_oracle(&net, seed, &mut tally);
        }
        assert!(
            tally.prepass_exits > 0,
            "the pre-pass never filled the top k"
        );
        assert!(tally.bar_savings > 0, "a full bar never saved a word");
        assert!(
            tally.inverted_zeros > 0,
            "no inverted zero-difference candidate was ranked"
        );
        assert!(
            tally.cut_ties > 0,
            "no (score, difference) tie straddled a cut"
        );
    }

    #[test]
    fn scan_counts_every_pair_outside_the_target_tfo() {
        let net = random_network(3, 5, 12);
        let patterns = PatternSet::random(net.num_pis(), 300, 3);
        let sim = simulate(&net, &patterns);
        let (_, stats) = scan(&net, sim.view(), 300, 3, usize::MAX);
        let signals = net.num_pis() + net.num_internal();
        let expected: usize = net
            .internal_ids()
            .map(|t| {
                let tfo = net.tfo_mask(t);
                signals - net.node_ids().filter(|n| tfo[n.index()]).count()
            })
            .sum();
        assert_eq!(stats.pairs, expected as u64);
    }
}
