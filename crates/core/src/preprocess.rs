//! Redundancy-removal pre-process (paper §6).
//!
//! Some benchmark circuits contain pairs of nodes computing the *same global
//! function*, which node-local synthesis cannot discover. The paper's
//! pre-process finds them cheaply: two identical signals must share their PI
//! support, so nodes are keyed by support and compared by simulation
//! signature; confirmed pairs are merged, keeping the node whose survival
//! saves more literals.

use als_network::{Network, NodeId};
use als_sim::{simulate, PatternSet};
use std::collections::HashMap;

/// Merges internal nodes with identical PI supports and identical simulation
/// signatures, then sweeps. Returns the number of nodes removed.
///
/// Signature equality over a finite pattern set is necessary but not
/// sufficient for functional equality; with the paper's 10 000 random
/// vectors collisions are considered negligible (the original does the
/// same). Exhaustive patterns make the merge exact.
///
/// Complexity: one simulation, one topological order, and one topological
/// pass that computes every node's structural PI support as a bitset
/// (`O(nodes · ⌈PIs/64⌉)` words). The scan then costs one hash lookup per
/// node; each merge adds one fanin-cone walk (the cycle check) and one
/// arena scan for the users of the removed node, `O(nodes + edges)`, with
/// no fanout table built.
///
/// Computing the supports once is exact, not an approximation. A merge
/// only ever substitutes a node for one with the *same* support (the
/// support is part of the bucket key), and [`Network::substitute`] keeps
/// every user's deduplicated fanin list rather than pruning fanins its new
/// function ignores. The union of fanin supports, and with it the
/// structural support of every live node, is therefore unchanged by each
/// merge, so the support a node has when the loop reaches it is the one
/// computed up front.
pub fn remove_redundancies(net: &mut Network, patterns: &PatternSet) -> usize {
    let sim = simulate(net, patterns);
    let order = net.topo_order();
    let supports = pi_supports(net, &order);

    // Bucket by (PI support, signature hash); representative is the earliest
    // node in topological order.
    let mut reps: HashMap<(&[u64], u64), NodeId> = HashMap::new();
    let mut removed = 0usize;
    for id in order {
        if !net.is_live(id) || net.node(id).is_pi() {
            continue;
        }
        let key = (supports[id.index()].as_slice(), sim.signature_hash(id));
        match reps.get(&key) {
            None => {
                reps.insert(key, id);
            }
            Some(&rep) if net.is_live(rep) && sim.signatures_equal(rep, id) => {
                // Merge: prefer to delete the node carrying more literals.
                // Deleting `rep` is only legal if `id` is not downstream of
                // it (no cycle), i.e. `rep ∉ TFI(id)`; `id` being later in
                // topological order means `rep` is never downstream of `id`.
                let rep_lits = net.node(rep).literal_count();
                let id_lits = net.node(id).literal_count();
                if rep_lits > id_lits && !net.tfi_mask(id)[rep.index()] {
                    net.substitute(rep, id);
                    reps.insert(key, id);
                } else {
                    net.substitute(id, rep);
                }
                removed += 1;
            }
            Some(_) => {
                // Hash collision with a dead or differing node: replace the
                // stale representative.
                reps.insert(key, id);
            }
        }
    }
    net.sweep();
    removed
}

/// The structural PI support of every node (bit `i` set when the node's
/// fanin cone contains `net.pis()[i]`), indexed by arena position, from one
/// pass over `order` (a topological order of the live nodes).
fn pi_supports(net: &Network, order: &[NodeId]) -> Vec<Vec<u64>> {
    let words = net.num_pis().div_ceil(64);
    let mut supports = vec![Vec::new(); order.iter().map(|id| id.index() + 1).max().unwrap_or(0)];
    for (i, pi) in net.pis().iter().enumerate() {
        let mut bits = vec![0u64; words];
        bits[i / 64] |= 1 << (i % 64);
        supports[pi.index()] = bits;
    }
    for &id in order {
        let node = net.node(id);
        if node.is_pi() {
            continue;
        }
        let mut bits = vec![0u64; words];
        for f in node.fanins() {
            for (b, w) in bits.iter_mut().zip(&supports[f.index()]) {
                *b |= w;
            }
        }
        supports[id.index()] = bits;
    }
    supports
}

#[cfg(test)]
mod tests {
    use super::*;
    use als_logic::{Cover, Cube};
    use als_sim::PatternSet;

    fn cube(lits: &[(usize, bool)]) -> Cube {
        Cube::from_literals(lits).unwrap()
    }

    /// Which merge paths the oracle took, observed around each substitution.
    #[derive(Clone, Copy, Debug, Default)]
    struct Branches {
        /// `substitute(rep, id)`: the later, cheaper duplicate survived.
        later_survives: usize,
        /// `substitute(id, rep)`: the representative survived.
        rep_survives: usize,
        /// Substitutions where a user read both nodes, so its fanin list
        /// was deduplicated and its function rebuilt by `remap_merge`.
        dedups: usize,
    }

    /// Whether some user of `old` also reads `new`.
    fn shares_a_user(net: &Network, old: NodeId, new: NodeId) -> bool {
        net.fanouts()[old.index()]
            .iter()
            .any(|&u| net.node(u).fanins().contains(&new))
    }

    /// The pre-process as first written (per-node `pi_support` cone walk,
    /// `tfo_mask` cycle check), kept as the differential oracle. Verbatim
    /// apart from `pi_support`'s two lines inlined and the branch tally.
    fn remove_redundancies_oracle(
        net: &mut Network,
        patterns: &PatternSet,
        branches: &mut Branches,
    ) -> usize {
        let sim = simulate(net, patterns);
        let order: Vec<NodeId> = net
            .topo_order()
            .into_iter()
            .filter(|&id| !net.node(id).is_pi())
            .collect();
        let mut reps: HashMap<(Vec<bool>, u64), NodeId> = HashMap::new();
        let mut removed = 0usize;
        for id in order {
            if !net.is_live(id) {
                continue;
            }
            let support: Vec<bool> = {
                let tfi = net.tfi_mask(id);
                net.pis().iter().map(|p| tfi[p.index()]).collect()
            };
            let key = (support, sim.signature_hash(id));
            match reps.get(&key) {
                None => {
                    reps.insert(key, id);
                }
                Some(&rep) if net.is_live(rep) && sim.signatures_equal(rep, id) => {
                    // Merge: prefer to delete the node carrying more literals.
                    // Deleting `rep` is only legal if `id` is not downstream of
                    // it (no cycle); `id` being later in topological order means
                    // `rep` is never downstream of `id`.
                    let rep_lits = net.node(rep).literal_count();
                    let id_lits = net.node(id).literal_count();
                    if rep_lits > id_lits && !net.tfo_mask(rep)[id.index()] {
                        branches.later_survives += 1;
                        branches.dedups += usize::from(shares_a_user(net, rep, id));
                        net.substitute(rep, id);
                        reps.insert(key, id);
                    } else {
                        branches.rep_survives += 1;
                        branches.dedups += usize::from(shares_a_user(net, id, rep));
                        net.substitute(id, rep);
                    }
                    removed += 1;
                }
                Some(_) => {
                    // Hash collision with a dead or differing node: replace the
                    // stale representative.
                    reps.insert(key, id);
                }
            }
        }
        net.sweep();
        removed
    }

    /// Runs both implementations on copies of `net`; asserts the same
    /// removed count and the same written BLIF. Returns the count.
    fn assert_matches_oracle(
        net: &Network,
        patterns: &PatternSet,
        branches: &mut Branches,
    ) -> usize {
        let mut fast = net.clone();
        let mut slow = net.clone();
        let removed = remove_redundancies(&mut fast, patterns);
        let expected = remove_redundancies_oracle(&mut slow, patterns, branches);
        assert_eq!(removed, expected, "removed count on {}", net.name());
        fast.check().unwrap();
        assert_eq!(
            als_network::blif::write(&fast),
            als_network::blif::write(&slow),
            "written BLIF on {}",
            net.name()
        );
        removed
    }

    #[test]
    fn registry_circuits_match_the_oracle() {
        let mut branches = Branches::default();
        let mut removed = 0usize;
        for bench in als_circuits::registry::all_benchmarks() {
            let net = (bench.build)();
            let random = PatternSet::random(net.num_pis(), 2048, 7);
            removed += assert_matches_oracle(&net, &random, &mut branches);
            if net.num_pis() <= 16 {
                let exhaustive = PatternSet::exhaustive(net.num_pis()).unwrap();
                removed += assert_matches_oracle(&net, &exhaustive, &mut branches);
            }
        }
        assert!(
            removed > 0,
            "no registry circuit had a redundancy: {branches:?}"
        );
    }

    /// A gate spec: OR (else AND) of literals `(signal index, phase)`.
    type Gate = (bool, Vec<(usize, bool)>);

    fn add_gate(net: &mut Network, signals: &[NodeId], name: String, gate: &Gate) -> NodeId {
        let (is_or, lits) = gate;
        let fanins: Vec<NodeId> = lits.iter().map(|&(s, _)| signals[s]).collect();
        let local: Vec<(usize, bool)> =
            lits.iter().enumerate().map(|(v, &(_, p))| (v, p)).collect();
        let cover = if *is_or {
            Cover::from_cubes(local.len(), local.iter().map(|&l| cube(&[l])))
        } else {
            Cover::from_cubes(local.len(), [cube(&local)])
        };
        net.add_node(name, fanins, cover)
    }

    /// The same gate as its full minterm SOP: identical function, more
    /// literals whenever the gate is an OR of two or more inputs.
    fn add_minterm_gate(
        net: &mut Network,
        signals: &[NodeId],
        name: String,
        gate: &Gate,
    ) -> NodeId {
        let (is_or, lits) = gate;
        let k = lits.len();
        let fanins: Vec<NodeId> = lits.iter().map(|&(s, _)| signals[s]).collect();
        let on = |m: usize| {
            let mut vals = lits
                .iter()
                .enumerate()
                .map(|(v, &(_, p))| (m >> v & 1 == 1) == p);
            if *is_or {
                vals.any(|x| x)
            } else {
                vals.all(|x| x)
            }
        };
        let cubes = (0..1usize << k).filter(|&m| on(m)).map(|m| {
            let lits: Vec<(usize, bool)> = (0..k).map(|v| (v, m >> v & 1 == 1)).collect();
            cube(&lits)
        });
        net.add_node(name, fanins, Cover::from_cubes(k, cubes))
    }

    /// Random layered networks with injected duplicates: permuted-fanin
    /// copies, an expensive minterm-SOP node followed later by its cheap
    /// form, and duplicate pairs read by one shared user. Both merge
    /// branches and the dedup path must be exercised.
    #[test]
    fn random_networks_with_duplicates_match_the_oracle() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let mut branches = Branches::default();
        for round in 0..60 {
            let num_pis = 4 + next(5);
            let mut net = Network::new(format!("dup{round}"));
            let mut signals: Vec<NodeId> =
                (0..num_pis).map(|i| net.add_pi(format!("x{i}"))).collect();
            for g in 0..(6 + next(14)) {
                let k = 2 + next(2);
                let mut lits: Vec<(usize, bool)> = Vec::new();
                while lits.len() < k {
                    let s = next(signals.len());
                    if lits.iter().all(|&(t, _)| t != s) {
                        lits.push((s, next(2) == 1));
                    }
                }
                let gate: Gate = (next(2) == 1, lits);
                let name = format!("g{g}");
                let id = match next(4) {
                    // Expensive first, cheap duplicate later.
                    0 => {
                        add_minterm_gate(&mut net, &signals, format!("{name}_sop"), &gate);
                        add_gate(&mut net, &signals, name, &gate)
                    }
                    // A permuted-fanin copy, and a user reading both.
                    1 => {
                        let a = add_gate(&mut net, &signals, name.clone(), &gate);
                        let mut perm = gate.clone();
                        perm.1.reverse();
                        let b = add_gate(&mut net, &signals, format!("{name}_perm"), &perm);
                        let (ai, bi) = (signals.len(), signals.len() + 1);
                        signals.extend([a, b]);
                        let user: Gate = (next(2) == 1, vec![(ai, true), (bi, true)]);
                        add_gate(&mut net, &signals, format!("{name}_both"), &user)
                    }
                    _ => add_gate(&mut net, &signals, name, &gate),
                };
                signals.push(id);
            }
            let n = signals.len();
            for (i, &s) in signals[n - 3..].iter().enumerate() {
                net.add_po(format!("y{i}"), s);
            }
            let exhaustive = PatternSet::exhaustive(num_pis).unwrap();
            assert_matches_oracle(&net, &exhaustive, &mut branches);
            let random = PatternSet::random(num_pis, 100, round);
            assert_matches_oracle(&net, &random, &mut branches);
        }
        assert!(
            branches.later_survives > 0,
            "cheaper-later branch never ran: {branches:?}"
        );
        assert!(
            branches.rep_survives > 0,
            "representative branch never ran: {branches:?}"
        );
        assert!(
            branches.dedups > 0,
            "no substitution deduplicated a fanin list: {branches:?}"
        );
    }

    #[test]
    fn merges_structural_duplicates() {
        let mut net = Network::new("dup");
        let a = net.add_pi("a");
        let b = net.add_pi("b");
        // Two AND gates with permuted fanin lists — same function.
        let g1 = net.add_node(
            "g1",
            vec![a, b],
            Cover::from_cubes(2, [cube(&[(0, true), (1, true)])]),
        );
        let g2 = net.add_node(
            "g2",
            vec![b, a],
            Cover::from_cubes(2, [cube(&[(0, true), (1, true)])]),
        );
        let y = net.add_node(
            "y",
            vec![g1, g2],
            Cover::from_cubes(2, [cube(&[(0, true)]), cube(&[(1, true)])]),
        );
        net.add_po("y", y);
        let before: Vec<bool> = (0..4)
            .map(|m| net.eval(&[m & 1 == 1, m >> 1 & 1 == 1])[0])
            .collect();
        let patterns = PatternSet::exhaustive(2).unwrap();
        let removed = remove_redundancies(&mut net, &patterns);
        // g2 merges into g1; y then degenerates to a buffer of g1 with an
        // identical signature and merges as well.
        assert_eq!(removed, 2);
        net.check().unwrap();
        let after: Vec<bool> = (0..4)
            .map(|m| net.eval(&[m & 1 == 1, m >> 1 & 1 == 1])[0])
            .collect();
        assert_eq!(before, after, "function must be preserved");
    }

    #[test]
    fn keeps_cheaper_node() {
        let mut net = Network::new("cheap");
        let a = net.add_pi("a");
        let b = net.add_pi("b");
        // g1 = ab + ab' + a'b  (messy, 6 literals) vs g2 = a + b (2 literals);
        // same function.
        let g1 = net.add_node(
            "g1",
            vec![a, b],
            Cover::from_cubes(
                2,
                [
                    cube(&[(0, true), (1, true)]),
                    cube(&[(0, true), (1, false)]),
                    cube(&[(0, false), (1, true)]),
                ],
            ),
        );
        let g2 = net.add_node(
            "g2",
            vec![a, b],
            Cover::from_cubes(2, [cube(&[(0, true)]), cube(&[(1, true)])]),
        );
        let y = net.add_node(
            "y",
            vec![g1, g2],
            Cover::from_cubes(2, [cube(&[(0, true), (1, true)])]),
        );
        net.add_po("y", y);
        let lits_before = net.literal_count();
        let patterns = PatternSet::exhaustive(2).unwrap();
        remove_redundancies(&mut net, &patterns);
        net.check().unwrap();
        // The expensive g1 must be the one that disappeared.
        assert!(net.is_live(g2));
        assert!(!net.is_live(g1));
        assert!(net.literal_count() < lits_before);
    }

    #[test]
    fn different_functions_untouched() {
        let mut net = Network::new("diff");
        let a = net.add_pi("a");
        let b = net.add_pi("b");
        let g1 = net.add_node(
            "g1",
            vec![a, b],
            Cover::from_cubes(2, [cube(&[(0, true), (1, true)])]),
        );
        let g2 = net.add_node(
            "g2",
            vec![a, b],
            Cover::from_cubes(2, [cube(&[(0, true)]), cube(&[(1, true)])]),
        );
        net.add_po("g1", g1);
        net.add_po("g2", g2);
        let patterns = PatternSet::exhaustive(2).unwrap();
        assert_eq!(remove_redundancies(&mut net, &patterns), 0);
        assert!(net.is_live(g1) && net.is_live(g2));
    }

    #[test]
    fn chain_of_duplicates_collapses() {
        let mut net = Network::new("chain");
        let a = net.add_pi("a");
        let mut drivers = Vec::new();
        for i in 0..4 {
            let g = net.add_node(
                format!("inv{i}"),
                vec![a],
                Cover::from_cubes(1, [cube(&[(0, false)])]),
            );
            drivers.push(g);
        }
        let y = net.add_node(
            "y",
            drivers.clone(),
            Cover::from_cubes(4, [cube(&[(0, true), (1, true), (2, true), (3, true)])]),
        );
        net.add_po("y", y);
        let patterns = PatternSet::exhaustive(1).unwrap();
        let removed = remove_redundancies(&mut net, &patterns);
        // The three duplicate inverters merge, then y (now a buffer of the
        // survivor) merges too.
        assert_eq!(removed, 4);
        net.check().unwrap();
        assert_eq!(net.eval(&[false]), vec![true]);
        assert_eq!(net.eval(&[true]), vec![false]);
    }
}
