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
        for cand in candidates.into_iter().take(TRIALS_PER_ITERATION) {
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

/// Ranks substitution candidates by `literals-freed / error`, considering
/// every ordered signal pair (in both phases) and the two constants. Signal
/// signatures come from the caller's (incremental) view — no fresh
/// simulation.
///
/// The pairwise scan ([`scan`]) is the `O(signals² × words)` bulk of
/// SASIMI's runtime. It reads only the words a decision needs, under every
/// [`PatternPolicy`](crate::PatternPolicy): a pair whose signal
/// probabilities already rule out both phases is rejected before any word
/// is read, and every other pair is probed from a one-word prefix that
/// doubles only while the pair could still substitute in some phase
/// ([`SimView::difference_probe`]). Both rejections are exact, so the
/// surviving candidate set, its difference counts and its order equal a
/// full-width scan of every pair.
fn generate_candidates(
    net: &Network,
    sim: SimView<'_>,
    ctx: &AlsContext,
    margin: f64,
) -> Vec<Candidate> {
    let mark = ctx.telemetry_mark();
    let num_patterns = ctx.patterns().num_patterns() as u64; // lint:allow(as-cast): usize fits u64 on all supported targets
    let allowed = (margin * num_patterns as f64).floor() as u64; // lint:allow(as-cast): margin >= 0 and the product <= num_patterns
    let (mut out, stats) = scan(net, sim, num_patterns, allowed);
    out.sort_by(|a, b| {
        b.score
            .total_cmp(&a.score)
            .then(a.difference.cmp(&b.difference))
    });
    ctx.record_similarity_scan(
        stats.pairs,
        stats.popcount_rejects + stats.prefix_rejects,
        stats.words,
        stats.pairs * sim.words_per_signal() as u64, // lint:allow(as-cast): usize fits u64 on all supported targets
        mark,
    );
    out
}

/// Work counters of one [`scan`].
#[derive(Clone, Copy, Debug, Default)]
struct ScanStats {
    /// Ordered (target, substitute) pairs outside the target's TFO.
    pairs: u64,
    /// Pairs rejected on their signals' popcounts, reading no word.
    popcount_rejects: u64,
    /// Pairs rejected from a signature-word prefix.
    prefix_rejects: u64,
    /// Signature words read (per signal of a pair).
    words: u64,
}

/// The unsorted candidates within `allowed` mismatching patterns, in
/// target-major, substitute-minor order.
///
/// A pair is rejected without reading a word when its popcounts rule out
/// both phases. The mismatch count of `t` and `s` is at least
/// `|ones_t − ones_s|`, and the inverted phase's mismatch count `N − diff`
/// is at least `|ones_t − (N − ones_s)|`. Tail bits are canonically zero, so
/// the popcounts are exact.
fn scan(
    net: &Network,
    sim: SimView<'_>,
    num_patterns: u64,
    allowed: u64,
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
    // Each target's TFO (itself included) is marked into one reused buffer
    // and cleared through the list of nodes it touched.
    let mut in_tfo = vec![false; fanouts.len()];
    let mut touched: Vec<NodeId> = Vec::new();

    let mut stats = ScanStats::default();
    let mut out: Vec<Candidate> = Vec::new();
    for &t in &targets {
        for &n in &touched {
            in_tfo[n.index()] = false;
        }
        touched.clear();
        touched.push(t);
        in_tfo[t.index()] = true;
        let mut next = 0;
        while let Some(&n) = touched.get(next) {
            next += 1;
            for &u in &fanouts[n.index()] {
                if !std::mem::replace(&mut in_tfo[u.index()], true) {
                    touched.push(u);
                }
            }
        }

        // Deleting t frees its literals (more after simplification; this is
        // the ranking heuristic, the trial measures reality).
        let freed = net.node(t).literal_count();
        // Constants: cost of t being 1 with probability ~0 or ~1.
        let ones_t = ones[t.index()];
        for (constant, diff) in [(false, ones_t), (true, num_patterns - ones_t)] {
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
        // The inverted phase costs an extra inverter literal, so it is only
        // ever considered when freed > 1 — pairs without it are decided on
        // the mismatch bound alone.
        let max_matches = (freed > 1).then_some(allowed);
        for &s in &all_signals {
            if in_tfo[s.index()] {
                continue; // self or would create a cycle
            }
            stats.pairs += 1;
            let ones_s = ones[s.index()];
            if ones_t.abs_diff(ones_s) > allowed
                && (max_matches.is_none() || (ones_t + ones_s).abs_diff(num_patterns) > allowed)
            {
                stats.popcount_rejects += 1;
                continue;
            }
            let probe = sim.difference_probe(t, s, allowed, max_matches);
            stats.words += probe.words_scanned;
            if probe.early_exit {
                stats.prefix_rejects += 1;
                continue;
            }
            let diff = probe.count;
            // Same phase.
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
            // Inverted phase (costs one extra inverter literal).
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
    (out, stats)
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

    /// The scan before popcount rejection and policy-independent probing:
    /// one `tfo_mask` per target and a full-width `difference_count` per
    /// pair. The exact scan must return the same ranked `Vec`.
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

    #[test]
    fn exact_scan_matches_the_full_width_oracle() {
        let mut totals = ScanStats::default();
        let mut inverted = 0usize;
        for seed in 1..=40u64 {
            let net = random_network(seed, 4 + (seed % 4) as usize, 6 + (seed % 14) as usize);
            // Explicit vector sets off the 64-pattern word grid (their
            // final word is partial), and a random set on it.
            let vectors: Vec<u64> = (0..1000u64)
                .map(|i| (i * 0x9E37_79B9 + seed).rotate_left((i % 61) as u32))
                .collect();
            for patterns in [
                PatternSet::from_vectors(net.num_pis(), &vectors[..100]),
                PatternSet::from_vectors(net.num_pis(), &vectors),
                PatternSet::random(net.num_pis(), 2048, seed),
            ] {
                let num_patterns = patterns.num_patterns();
                let sim = simulate(&net, &patterns);
                let view = sim.view();
                let n = num_patterns as u64;
                for threshold in [0.0, 0.001, 0.01, 0.05, 0.3] {
                    let allowed = (threshold * n as f64).floor() as u64;
                    let oracle = brute_force_candidates(&net, view, n, allowed);
                    for policy in [
                        PatternPolicy::Fixed(num_patterns),
                        PatternPolicy::Adaptive {
                            min: 64,
                            max: num_patterns,
                        },
                    ] {
                        let config = AlsConfig::builder()
                            .threshold(threshold)
                            .patterns(policy)
                            .build()
                            .unwrap();
                        let ctx = AlsContext::with_patterns(&net, patterns.clone())
                            .with_sampling(&config);
                        let got = generate_candidates(&net, view, &ctx, threshold);
                        assert_eq!(
                            got.iter().map(key).collect::<Vec<_>>(),
                            oracle.iter().map(key).collect::<Vec<_>>(),
                            "seed {seed}, {num_patterns} patterns, threshold {threshold}, {policy:?}"
                        );
                    }
                    let (_, stats) = scan(&net, view, n, allowed);
                    totals.pairs += stats.pairs;
                    totals.popcount_rejects += stats.popcount_rejects;
                    totals.prefix_rejects += stats.prefix_rejects;
                    inverted += oracle.iter().filter(|c| c.inverted).count();
                }
            }
        }
        assert!(
            totals.popcount_rejects > 0,
            "no pair was rejected by popcount"
        );
        assert!(
            totals.prefix_rejects > 0,
            "no pair was rejected from a prefix"
        );
        assert!(inverted > 0, "no inverted candidate was ever produced");
        assert!(totals.popcount_rejects + totals.prefix_rejects < totals.pairs);
    }

    #[test]
    fn scan_counts_every_pair_outside_the_target_tfo() {
        let net = random_network(3, 5, 12);
        let patterns = PatternSet::random(net.num_pis(), 300, 3);
        let sim = simulate(&net, &patterns);
        let (_, stats) = scan(&net, sim.view(), 300, 3);
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
