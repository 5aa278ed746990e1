//! Versioned perf records (`BENCH_<circuit>.json`) and the regression
//! comparator behind the CI perf gate.
//!
//! A [`BenchRecord`] captures one `perfsuite` run on one circuit: the
//! environment (git sha, thread count, host parallelism), and per
//! algorithm × threshold the quality (literal/area ratio, error rate) and
//! the timings (wall clock plus the engine's per-phase breakdown from
//! [`MetricsReport`](als_telemetry::MetricsReport)). Records are written as
//! schema-versioned JSON so baselines checked into the repository stay
//! comparable across revisions, and [`compare`] flags wall-time or quality
//! regressions between two records.

use crate::RunResult;
use als_telemetry::json::{Json, JsonError};

/// Version stamp of the `BENCH_*.json` format. Bump on breaking changes;
/// [`BenchRecord::parse`] rejects records from other versions rather than
/// mis-reading them.
pub const BENCH_SCHEMA_VERSION: u64 = 1;

/// One algorithm × threshold measurement inside a [`BenchRecord`].
#[derive(Clone, Debug, PartialEq)]
pub struct BenchEntry {
    /// Algorithm display name (`SASIMI`, `single-selection`, ...).
    pub algorithm: String,
    /// Error-rate threshold of the run.
    pub threshold: f64,
    /// Literal ratio (approx / original); lower is better.
    pub literal_ratio: f64,
    /// Mapped-area ratio (approx / original); lower is better.
    pub area_ratio: f64,
    /// Mapped delay ratio (approx / original); lower is better. Optional in
    /// the JSON — records predating the field read back as 0.
    pub delay_ratio: f64,
    /// Mapped critical-path delay of the approximated network, in library
    /// delay units. Optional in the JSON, defaulting to 0.
    pub mapped_delay: f64,
    /// Measured error rate of the result.
    pub error_rate: f64,
    /// Wall-clock runtime in seconds.
    pub runtime_s: f64,
    /// Local-pattern gathers skipped because static bounds pruned every
    /// candidate of a node (the abstract interpreter's simulations-avoided
    /// measure). Optional in the JSON — records predating the field read
    /// back as 0.
    pub simulations_avoided: u64,
    /// Nodes re-evaluated by incremental dirty-set resimulation across the
    /// run. Optional in the JSON — records predating the field read back
    /// as 0.
    pub resim_nodes: u64,
    /// Nodes full resimulation would have evaluated for the same updates;
    /// `resim_nodes` strictly below this is the incremental saving.
    /// Optional in the JSON, defaulting to 0.
    pub resim_full_equivalent: u64,
    /// Signature words written by simulation across the run (node
    /// evaluations × 64-pattern words) — the unit adaptive sampling saves
    /// in. Optional in the JSON, defaulting to 0.
    pub patterns_simulated_words: u64,
    /// Trials rejected from a pattern prefix by adaptive sampling before
    /// full-budget simulation. Optional in the JSON, defaulting to 0;
    /// records predating `similarity_early_rejects` also count SASIMI's
    /// prefix-rejected pairs here.
    pub adaptive_early_decisions: u64,
    /// SASIMI similarity-scan pairs rejected before a full-width scan (by
    /// popcount or from a word prefix). Optional in the JSON, defaulting
    /// to 0.
    pub similarity_early_rejects: u64,
    /// Individual SAT queries (`solve_with_assumptions` calls) issued by
    /// the don't-care engine. Optional in the JSON, defaulting to 0.
    pub sat_queries: u64,
    /// SAT solver instances built (one per window that needed a query).
    /// Optional in the JSON, defaulting to 0.
    pub solver_instances: u64,
    /// Clauses reclaimed by clause-group retraction: always 0 since
    /// don't-care solvers stopped outliving their window; older records
    /// carry nonzero values. Optional in the JSON, defaulting to 0.
    pub clauses_retracted: u64,
    /// Engine phase breakdown in seconds (`preprocess`, `simulate`, ...).
    pub phases: Vec<(String, f64)>,
}

impl BenchEntry {
    /// Builds an entry from a harness [`RunResult`] (phase timings come from
    /// the outcome's metrics).
    pub fn from_run(r: &RunResult) -> Self {
        BenchEntry {
            algorithm: r.algorithm.clone(),
            threshold: r.threshold,
            literal_ratio: r.literal_ratio,
            area_ratio: r.area_ratio,
            delay_ratio: r.delay_ratio,
            mapped_delay: r.metrics.mapped_delay,
            error_rate: r.error_rate,
            runtime_s: r.runtime_s,
            simulations_avoided: r.metrics.nodes_skipped,
            resim_nodes: r.metrics.resim_nodes,
            resim_full_equivalent: r.metrics.resim_full_equivalent,
            patterns_simulated_words: r.metrics.patterns_simulated_words,
            adaptive_early_decisions: r.metrics.adaptive_early_decisions,
            similarity_early_rejects: r.metrics.similarity_early_rejects,
            sat_queries: r.metrics.sat_queries,
            solver_instances: r.metrics.solver_instances,
            clauses_retracted: r.metrics.clauses_retracted,
            phases: r
                .metrics
                .phase_nanos
                .as_seconds()
                .iter()
                .map(|&(name, secs)| (name.to_string(), secs))
                .collect(),
        }
    }

    fn to_json(&self) -> Json {
        let mut phases = Json::object();
        for (name, secs) in &self.phases {
            phases.set(name.as_str(), *secs);
        }
        let mut obj = Json::object();
        obj.set("algorithm", self.algorithm.as_str())
            .set("threshold", self.threshold)
            .set("literal_ratio", self.literal_ratio)
            .set("area_ratio", self.area_ratio)
            .set("delay_ratio", self.delay_ratio)
            .set("mapped_delay", self.mapped_delay)
            .set("error_rate", self.error_rate)
            .set("runtime_s", self.runtime_s)
            .set("simulations_avoided", self.simulations_avoided)
            .set("resim_nodes", self.resim_nodes)
            .set("resim_full_equivalent", self.resim_full_equivalent)
            .set("patterns_simulated_words", self.patterns_simulated_words)
            .set("adaptive_early_decisions", self.adaptive_early_decisions)
            .set("similarity_early_rejects", self.similarity_early_rejects)
            .set("sat_queries", self.sat_queries)
            .set("solver_instances", self.solver_instances)
            .set("clauses_retracted", self.clauses_retracted)
            .set("phases", phases);
        obj
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let num = |key: &str| {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("entry is missing numeric field `{key}`"))
        };
        let mut phases = Vec::new();
        if let Some(Json::Obj(map)) = v.get("phases") {
            for (name, secs) in map {
                phases.push((name.clone(), secs.as_f64().unwrap_or(0.0)));
            }
        }
        Ok(BenchEntry {
            algorithm: v
                .get("algorithm")
                .and_then(Json::as_str)
                .ok_or("entry is missing `algorithm`")?
                .to_string(),
            threshold: num("threshold")?,
            literal_ratio: num("literal_ratio")?,
            area_ratio: num("area_ratio")?,
            delay_ratio: v.get("delay_ratio").and_then(Json::as_f64).unwrap_or(0.0),
            mapped_delay: v.get("mapped_delay").and_then(Json::as_f64).unwrap_or(0.0),
            error_rate: num("error_rate")?,
            runtime_s: num("runtime_s")?,
            simulations_avoided: v
                .get("simulations_avoided")
                .and_then(Json::as_u64)
                .unwrap_or(0),
            resim_nodes: v.get("resim_nodes").and_then(Json::as_u64).unwrap_or(0),
            resim_full_equivalent: v
                .get("resim_full_equivalent")
                .and_then(Json::as_u64)
                .unwrap_or(0),
            patterns_simulated_words: v
                .get("patterns_simulated_words")
                .and_then(Json::as_u64)
                .unwrap_or(0),
            adaptive_early_decisions: v
                .get("adaptive_early_decisions")
                .and_then(Json::as_u64)
                .unwrap_or(0),
            similarity_early_rejects: v
                .get("similarity_early_rejects")
                .and_then(Json::as_u64)
                .unwrap_or(0),
            sat_queries: v.get("sat_queries").and_then(Json::as_u64).unwrap_or(0),
            solver_instances: v
                .get("solver_instances")
                .and_then(Json::as_u64)
                .unwrap_or(0),
            clauses_retracted: v
                .get("clauses_retracted")
                .and_then(Json::as_u64)
                .unwrap_or(0),
            phases,
        })
    }
}

/// One `perfsuite` run on one circuit: environment plus measurements.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BenchRecord {
    /// Format version ([`BENCH_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Benchmark circuit name (Table 3).
    pub circuit: String,
    /// Git revision the record was produced from (`unknown` outside a
    /// checkout).
    pub git_sha: String,
    /// Configured engine worker count (0 = all cores).
    pub threads: usize,
    /// Host parallelism when the record was produced (timings from hosts
    /// with different core counts are not directly comparable).
    pub nproc: usize,
    /// Whether the reduced `--quick` setup was used.
    pub quick: bool,
    /// Free-form caveats (e.g. "single-core container").
    pub notes: String,
    /// The measurements.
    pub entries: Vec<BenchEntry>,
}

impl BenchRecord {
    /// Creates an empty record stamped with the current environment.
    pub fn new(circuit: &str, threads: usize, quick: bool) -> Self {
        BenchRecord {
            schema_version: BENCH_SCHEMA_VERSION,
            circuit: circuit.to_string(),
            git_sha: git_sha(),
            threads,
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            quick,
            notes: String::new(),
            entries: Vec::new(),
        }
    }

    /// Renders the record as pretty-printed JSON (the `BENCH_*.json` file
    /// content).
    pub fn render(&self) -> String {
        let mut obj = Json::object();
        obj.set("schema_version", self.schema_version)
            .set("circuit", self.circuit.as_str())
            .set("git_sha", self.git_sha.as_str())
            .set("threads", self.threads)
            .set("nproc", self.nproc)
            .set("quick", self.quick)
            .set("notes", self.notes.as_str())
            .set(
                "entries",
                self.entries
                    .iter()
                    .map(BenchEntry::to_json)
                    .collect::<Vec<_>>(),
            );
        obj.render_pretty()
    }

    /// Parses a record, rejecting unknown schema versions.
    pub fn parse(text: &str) -> Result<Self, String> {
        let v = Json::parse(text).map_err(|e: JsonError| e.to_string())?;
        let version = v
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or("record is missing `schema_version`")?;
        if version != BENCH_SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema_version {version} (this build reads {BENCH_SCHEMA_VERSION})"
            ));
        }
        let str_field = |key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("record is missing `{key}`"))
        };
        let mut entries = Vec::new();
        if let Some(arr) = v.get("entries").and_then(Json::as_array) {
            for e in arr {
                entries.push(BenchEntry::from_json(e)?);
            }
        }
        Ok(BenchRecord {
            schema_version: version,
            circuit: str_field("circuit")?,
            git_sha: str_field("git_sha")?,
            threads: v.get("threads").and_then(Json::as_u64).unwrap_or(0) as usize, // lint:allow(as-cast): thread counts << 2^32
            nproc: v.get("nproc").and_then(Json::as_u64).unwrap_or(0) as usize, // lint:allow(as-cast): CPU counts << 2^32
            quick: v.get("quick").and_then(Json::as_bool).unwrap_or(false),
            notes: v
                .get("notes")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            entries,
        })
    }

    /// The conventional file name for this record.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.circuit)
    }
}

/// Tolerances for [`compare`].
#[derive(Clone, Copy, Debug)]
pub struct CompareOptions {
    /// Maximum tolerated wall-time growth in percent (default 15; the CI
    /// gate must trip well before a 20 % slowdown).
    pub max_slowdown_pct: f64,
    /// Maximum tolerated quality (literal/area ratio) growth in percent
    /// (default 2).
    pub max_quality_pct: f64,
    /// Wall-time floor in seconds: runs where both sides are faster than
    /// this are never flagged for time (timer noise dominates tiny runs).
    pub min_wall_s: f64,
}

impl Default for CompareOptions {
    fn default() -> Self {
        CompareOptions {
            max_slowdown_pct: 15.0,
            max_quality_pct: 2.0,
            min_wall_s: 0.010,
        }
    }
}

/// Compares `new` against the `old` baseline, returning one human-readable
/// line per regression (empty = pass). Entries are matched by
/// (algorithm, threshold); entries present on only one side are ignored
/// (coverage changes, not regressions). Besides the per-entry checks, the
/// *total* wall time over all matched entries is gated too — on fast hosts
/// each individual run may sit below the noise floor while a uniform
/// slowdown is still perfectly visible in the aggregate.
pub fn compare(old: &BenchRecord, new: &BenchRecord, opts: &CompareOptions) -> Vec<String> {
    let mut regressions = Vec::new();
    if old.circuit != new.circuit {
        regressions.push(format!(
            "circuit mismatch: baseline is {}, new record is {}",
            old.circuit, new.circuit
        ));
        return regressions;
    }
    let mut total_old = 0.0f64;
    let mut total_new = 0.0f64;
    for oe in &old.entries {
        let Some(ne) = new.entries.iter().find(|ne| {
            // Thresholds are grid keys round-tripped through JSON, so
            // matching is bit-exact identity, not numeric tolerance.
            ne.algorithm == oe.algorithm && ne.threshold.to_bits() == oe.threshold.to_bits()
        }) else {
            continue;
        };
        total_old += oe.runtime_s;
        total_new += ne.runtime_s;
        let slow_limit = oe.runtime_s * (1.0 + opts.max_slowdown_pct / 100.0);
        if ne.runtime_s > slow_limit && ne.runtime_s.max(oe.runtime_s) > opts.min_wall_s {
            regressions.push(format!(
                "{} {} @{}: wall time {:.3}s vs baseline {:.3}s (+{:.1}%, limit +{:.0}%)",
                new.circuit,
                oe.algorithm,
                oe.threshold,
                ne.runtime_s,
                oe.runtime_s,
                (ne.runtime_s / oe.runtime_s - 1.0) * 100.0,
                opts.max_slowdown_pct,
            ));
        }
        // The pruner going dark is a perf regression even when the wall
        // clock hasn't (yet) caught up with it: a baseline that avoided
        // simulations must keep avoiding them.
        if oe.simulations_avoided > 0 && ne.simulations_avoided == 0 {
            regressions.push(format!(
                "{} {} @{}: static pruning avoided {} simulations in the baseline but 0 now",
                new.circuit, oe.algorithm, oe.threshold, oe.simulations_avoided,
            ));
        }
        // Likewise for incremental resimulation degrading to full passes: a
        // baseline whose updates resimulated strictly fewer nodes than full
        // resimulation must keep that saving.
        if oe.resim_full_equivalent > 0
            && oe.resim_nodes < oe.resim_full_equivalent
            && ne.resim_full_equivalent > 0
            && ne.resim_nodes >= ne.resim_full_equivalent
        {
            regressions.push(format!(
                "{} {} @{}: incremental resimulation degraded to full passes \
                 ({} of {} nodes resimulated vs {} of {} in the baseline)",
                new.circuit,
                oe.algorithm,
                oe.threshold,
                ne.resim_nodes,
                ne.resim_full_equivalent,
                oe.resim_nodes,
                oe.resim_full_equivalent,
            ));
        }
        // And for early decisions going dark: a baseline that rejected
        // trials from a pattern prefix or similarity pairs before a full
        // scan must keep doing so, otherwise every trial or pair silently
        // pays the full simulation budget again. Records predating the
        // split count both kinds in `adaptive_early_decisions`.
        let early = |e: &BenchEntry| e.adaptive_early_decisions + e.similarity_early_rejects;
        if early(oe) > 0 && early(ne) == 0 {
            regressions.push(format!(
                "{} {} @{}: adaptive sampling rejected {} trials or pairs early in the baseline but 0 now",
                new.circuit,
                oe.algorithm,
                oe.threshold,
                early(oe),
            ));
        }
        // Mapped delay is gated only when both records carry it: records
        // predating the field read back as 0 and must keep comparing clean.
        if oe.delay_ratio > 0.0 && ne.delay_ratio > 0.0 {
            let delay_limit = oe.delay_ratio * (1.0 + opts.max_quality_pct / 100.0);
            if ne.delay_ratio > delay_limit {
                regressions.push(format!(
                    "{} {} @{}: delay ratio {:.4} vs baseline {:.4} (+{:.1}%, limit +{:.0}%)",
                    new.circuit,
                    oe.algorithm,
                    oe.threshold,
                    ne.delay_ratio,
                    oe.delay_ratio,
                    (ne.delay_ratio / oe.delay_ratio - 1.0) * 100.0,
                    opts.max_quality_pct,
                ));
            }
        }
        let quality_limit = oe.literal_ratio * (1.0 + opts.max_quality_pct / 100.0);
        if ne.literal_ratio > quality_limit {
            regressions.push(format!(
                "{} {} @{}: literal ratio {:.4} vs baseline {:.4} (+{:.1}%, limit +{:.0}%)",
                new.circuit,
                oe.algorithm,
                oe.threshold,
                ne.literal_ratio,
                oe.literal_ratio,
                (ne.literal_ratio / oe.literal_ratio - 1.0) * 100.0,
                opts.max_quality_pct,
            ));
        }
    }
    let total_limit = total_old * (1.0 + opts.max_slowdown_pct / 100.0);
    if total_new > total_limit && total_new.max(total_old) > opts.min_wall_s {
        regressions.push(format!(
            "{}: total wall time {:.3}s vs baseline {:.3}s (+{:.1}%, limit +{:.0}%)",
            new.circuit,
            total_new,
            total_old,
            (total_new / total_old - 1.0) * 100.0,
            opts.max_slowdown_pct,
        ));
    }
    regressions
}

/// Compares a new sweep record against its checked-in baseline, returning
/// one human-readable line per regression (empty = pass).
///
/// Points are matched by their grid identity (algorithm, threshold,
/// pattern policy, delay weight); points present on only one side are
/// ignored (grid-coverage changes, not regressions). Two gates:
///
/// * **Frontier regression** — a point whose baseline twin was
///   *non-dominated* is now strictly dominated by some point of the
///   *baseline* frontier. Judging against the baseline frontier (not the
///   new record's own) makes the gate monotone: a uniformly improved sweep
///   can never fail it, while any point sliding behind the old frontier
///   always does.
/// * **Quality** — a point's literal count grew beyond
///   [`CompareOptions::max_quality_pct`].
pub fn compare_sweep(
    old: &als_core::sweep::SweepRecord,
    new: &als_core::sweep::SweepRecord,
    opts: &CompareOptions,
) -> Vec<String> {
    use als_core::sweep::dominates;
    let mut regressions = Vec::new();
    if old.circuit != new.circuit {
        regressions.push(format!(
            "circuit mismatch: baseline is {}, new record is {}",
            old.circuit, new.circuit
        ));
        return regressions;
    }
    let baseline_frontier: Vec<_> = old.frontier().collect();
    for op in &old.points {
        let Some(np) = new.points.iter().find(|np| np.key() == op.key()) else {
            continue;
        };
        if !op.dominated {
            if let Some(beater) = baseline_frontier
                .iter()
                .find(|bf| dominates(bf.objectives(), np.objectives()))
            {
                regressions.push(format!(
                    "{} {} @{} [{}]: frontier regression — point (lits {}, delay {:.3}, er {:.5}) \
                     is newly dominated by baseline frontier point {} @{} \
                     (lits {}, delay {:.3}, er {:.5})",
                    new.circuit,
                    np.algorithm,
                    np.threshold,
                    np.patterns,
                    np.literals,
                    np.delay,
                    np.error_rate,
                    beater.algorithm,
                    beater.threshold,
                    beater.literals,
                    beater.delay,
                    beater.error_rate,
                ));
            }
        }
        let quality_limit = op.literals as f64 * (1.0 + opts.max_quality_pct / 100.0); // lint:allow(as-cast): counts << 2^52, exact in f64
        if np.literals as f64 > quality_limit {
            // lint:allow(as-cast): counts << 2^52, exact in f64
            regressions.push(format!(
                "{} {} @{} [{}]: literals {} vs baseline {} (+{:.1}%, limit +{:.0}%)",
                new.circuit,
                np.algorithm,
                np.threshold,
                np.patterns,
                np.literals,
                op.literals,
                (np.literals as f64 / op.literals as f64 - 1.0) * 100.0, // lint:allow(as-cast): counts << 2^52, exact in f64
                opts.max_quality_pct,
            ));
        }
    }
    regressions
}

/// Best-effort git revision: `GITHUB_SHA` in CI, `git rev-parse` in a
/// checkout, `"unknown"` otherwise.
pub fn git_sha() -> String {
    if let Ok(sha) = std::env::var("GITHUB_SHA") {
        if !sha.is_empty() {
            return sha.chars().take(12).collect();
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record_with_runtime(runtime_s: f64, literal_ratio: f64) -> BenchRecord {
        let mut rec = BenchRecord {
            schema_version: BENCH_SCHEMA_VERSION,
            circuit: "RCA32".into(),
            git_sha: "abc123".into(),
            threads: 1,
            nproc: 1,
            quick: true,
            notes: String::new(),
            entries: Vec::new(),
        };
        rec.entries.push(BenchEntry {
            algorithm: "multi-selection".into(),
            threshold: 0.05,
            literal_ratio,
            area_ratio: literal_ratio,
            delay_ratio: 0.0,
            mapped_delay: 0.0,
            error_rate: 0.04,
            runtime_s,
            simulations_avoided: 0,
            resim_nodes: 0,
            resim_full_equivalent: 0,
            patterns_simulated_words: 0,
            adaptive_early_decisions: 0,
            similarity_early_rejects: 0,
            sat_queries: 0,
            solver_instances: 0,
            clauses_retracted: 0,
            phases: vec![("simulate".into(), runtime_s / 2.0)],
        });
        rec
    }

    #[test]
    fn json_round_trip() {
        let rec = record_with_runtime(1.25, 0.8);
        let parsed = BenchRecord::parse(&rec.render()).unwrap();
        assert_eq!(parsed, rec);
        assert_eq!(parsed.file_name(), "BENCH_RCA32.json");
    }

    #[test]
    fn rejects_future_schema() {
        let mut rec = record_with_runtime(1.0, 0.8);
        rec.schema_version = BENCH_SCHEMA_VERSION + 1;
        let err = BenchRecord::parse(&rec.render()).unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
    }

    #[test]
    fn twenty_percent_slowdown_trips_default_gate() {
        let old = record_with_runtime(1.0, 0.8);
        let new = record_with_runtime(1.2, 0.8);
        let regs = compare(&old, &new, &CompareOptions::default());
        // Flagged per entry *and* in the aggregate.
        assert_eq!(regs.len(), 2, "{regs:?}");
        assert!(regs.iter().all(|r| r.contains("wall time")), "{regs:?}");
    }

    #[test]
    fn uniform_slowdown_of_tiny_runs_trips_aggregate_gate() {
        // Each run is below the 10ms noise floor, but ten of them at +20%
        // add up to a visible total regression (the CI quick-run case).
        let mut old = record_with_runtime(0.004, 0.8);
        let mut new = record_with_runtime(0.0048, 0.8);
        for i in 0..9 {
            let t = 0.01 + f64::from(i) / 100.0;
            let mut oe = old.entries[0].clone();
            oe.threshold = t;
            oe.runtime_s = 0.004;
            old.entries.push(oe);
            let mut ne = new.entries[0].clone();
            ne.threshold = t;
            ne.runtime_s = 0.0048;
            new.entries.push(ne);
        }
        let regs = compare(&old, &new, &CompareOptions::default());
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert!(regs[0].contains("total wall time"), "{regs:?}");
    }

    #[test]
    fn ten_percent_slowdown_passes_default_gate() {
        let old = record_with_runtime(1.0, 0.8);
        let new = record_with_runtime(1.1, 0.8);
        assert!(compare(&old, &new, &CompareOptions::default()).is_empty());
    }

    #[test]
    fn tiny_runs_are_never_flagged_for_time() {
        // 3ms → 6ms is a 100% slowdown but below the noise floor.
        let old = record_with_runtime(0.003, 0.8);
        let new = record_with_runtime(0.006, 0.8);
        assert!(compare(&old, &new, &CompareOptions::default()).is_empty());
    }

    #[test]
    fn records_without_simulations_avoided_parse_as_zero() {
        let rec = record_with_runtime(1.0, 0.8);
        let json = rec.render().replace("\"simulations_avoided\": 0,", "");
        let parsed = BenchRecord::parse(&json).unwrap();
        assert_eq!(parsed.entries[0].simulations_avoided, 0);
    }

    #[test]
    fn pruning_going_dark_trips_gate() {
        let mut old = record_with_runtime(1.0, 0.8);
        old.entries[0].simulations_avoided = 17;
        let new = record_with_runtime(1.0, 0.8);
        let regs = compare(&old, &new, &CompareOptions::default());
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert!(regs[0].contains("avoided 17 simulations"), "{regs:?}");
        // The reverse direction (pruning got *better*) is not a regression.
        assert!(compare(&new, &old, &CompareOptions::default()).is_empty());
    }

    #[test]
    fn records_without_resim_fields_parse_as_zero() {
        let rec = record_with_runtime(1.0, 0.8);
        let json = rec
            .render()
            .replace("\"resim_nodes\": 0,", "")
            .replace("\"resim_full_equivalent\": 0,", "");
        let parsed = BenchRecord::parse(&json).unwrap();
        assert_eq!(parsed.entries[0].resim_nodes, 0);
        assert_eq!(parsed.entries[0].resim_full_equivalent, 0);
    }

    #[test]
    fn resim_degrading_to_full_trips_gate() {
        let mut old = record_with_runtime(1.0, 0.8);
        old.entries[0].resim_nodes = 40;
        old.entries[0].resim_full_equivalent = 100;
        let mut new = record_with_runtime(1.0, 0.8);
        new.entries[0].resim_nodes = 100;
        new.entries[0].resim_full_equivalent = 100;
        let regs = compare(&old, &new, &CompareOptions::default());
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert!(regs[0].contains("degraded to full"), "{regs:?}");
        // The reverse direction (resim got *better*) is not a regression,
        // and neither are records that predate the counters (both zero).
        assert!(compare(&new, &old, &CompareOptions::default()).is_empty());
        let legacy = record_with_runtime(1.0, 0.8);
        assert!(compare(&legacy, &new, &CompareOptions::default()).is_empty());
        assert!(compare(&old, &legacy, &CompareOptions::default()).is_empty());
    }

    #[test]
    fn records_without_sampling_fields_parse_as_zero() {
        let rec = record_with_runtime(1.0, 0.8);
        let json = rec
            .render()
            .replace("\"patterns_simulated_words\": 0,", "")
            .replace("\"adaptive_early_decisions\": 0,", "")
            .replace("\"similarity_early_rejects\": 0,", "");
        let parsed = BenchRecord::parse(&json).unwrap();
        assert_eq!(parsed.entries[0].patterns_simulated_words, 0);
        assert_eq!(parsed.entries[0].adaptive_early_decisions, 0);
        assert_eq!(parsed.entries[0].similarity_early_rejects, 0);
    }

    #[test]
    fn adaptive_sampling_going_dark_trips_gate() {
        let mut old = record_with_runtime(1.0, 0.8);
        old.entries[0].adaptive_early_decisions = 9;
        old.entries[0].patterns_simulated_words = 1000;
        let mut new = record_with_runtime(1.0, 0.8);
        new.entries[0].patterns_simulated_words = 1400;
        let regs = compare(&old, &new, &CompareOptions::default());
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert!(
            regs[0].contains("rejected 9 trials or pairs early"),
            "{regs:?}"
        );
        // The reverse direction (sampling got *better*) is not a regression,
        // and neither are legacy records without the counters.
        assert!(compare(&new, &old, &CompareOptions::default()).is_empty());
        let legacy = record_with_runtime(1.0, 0.8);
        assert!(compare(&legacy, &new, &CompareOptions::default()).is_empty());
        // A baseline that counted scan rejects as adaptive decisions stays
        // clean against a record that counts them separately, and a scan
        // whose early rejects go dark trips the gate as well.
        let mut split = record_with_runtime(1.0, 0.8);
        split.entries[0].similarity_early_rejects = 9;
        assert!(compare(&old, &split, &CompareOptions::default()).is_empty());
        let regs = compare(&split, &new, &CompareOptions::default());
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert!(
            regs[0].contains("rejected 9 trials or pairs early"),
            "{regs:?}"
        );
    }

    #[test]
    fn records_without_sat_fields_parse_as_zero() {
        let rec = record_with_runtime(1.0, 0.8);
        let json = rec
            .render()
            .replace("\"sat_queries\": 0,", "")
            .replace("\"solver_instances\": 0,", "")
            .replace("\"clauses_retracted\": 0,", "");
        let parsed = BenchRecord::parse(&json).unwrap();
        assert_eq!(parsed.entries[0].sat_queries, 0);
        assert_eq!(parsed.entries[0].solver_instances, 0);
        assert_eq!(parsed.entries[0].clauses_retracted, 0);
    }

    #[test]
    fn records_without_delay_fields_parse_as_zero() {
        let rec = record_with_runtime(1.0, 0.8);
        let json = rec
            .render()
            .replace("\"delay_ratio\": 0,", "")
            .replace("\"mapped_delay\": 0,", "");
        let parsed = BenchRecord::parse(&json).unwrap();
        assert_eq!(parsed.entries[0].delay_ratio, 0.0);
        assert_eq!(parsed.entries[0].mapped_delay, 0.0);
    }

    #[test]
    fn delay_regression_trips_gate_only_when_both_sides_carry_it() {
        let mut old = record_with_runtime(1.0, 0.8);
        old.entries[0].delay_ratio = 0.90;
        let mut new = record_with_runtime(1.0, 0.8);
        new.entries[0].delay_ratio = 0.95;
        let regs = compare(&old, &new, &CompareOptions::default());
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert!(regs[0].contains("delay ratio"), "{regs:?}");
        // Legacy records (delay 0 on either side) never trip the delay gate.
        let legacy = record_with_runtime(1.0, 0.8);
        assert!(compare(&legacy, &new, &CompareOptions::default()).is_empty());
        assert!(compare(&old, &legacy, &CompareOptions::default()).is_empty());
        // And a within-tolerance delay passes.
        new.entries[0].delay_ratio = 0.905;
        assert!(compare(&old, &new, &CompareOptions::default()).is_empty());
    }

    fn sweep_point(lits: u64, delay: f64, er: f64, threshold: f64) -> als_core::sweep::SweepPoint {
        als_core::sweep::SweepPoint {
            algorithm: "single-selection".into(),
            threshold,
            patterns: "fixed:512".into(),
            delay_weight: "off".into(),
            literals: lits,
            literal_ratio: 1.0,
            area: lits as f64, // lint:allow(as-cast): test helper
            area_ratio: 1.0,
            delay,
            delay_ratio: 1.0,
            error_rate: er,
            runtime_s: 0.0,
            dominated: false,
        }
    }

    fn sweep_record(points: Vec<als_core::sweep::SweepPoint>) -> als_core::sweep::SweepRecord {
        let mut points = points;
        als_core::sweep::mark_frontier(&mut points);
        als_core::sweep::SweepRecord {
            schema_version: als_core::sweep::SWEEP_SCHEMA_VERSION,
            circuit: "RCA32".into(),
            git_sha: "abc".into(),
            seed: 1,
            quick: true,
            sweep_workers: 1,
            notes: String::new(),
            golden_literals: 100,
            golden_area: 300.0,
            golden_delay: 20.0,
            absint_frechet_nodes: 0,
            absint_max_po_width: 0.0,
            points,
        }
    }

    #[test]
    fn sweep_identical_records_pass() {
        let rec = sweep_record(vec![
            sweep_point(10, 5.0, 0.01, 0.01),
            sweep_point(8, 6.0, 0.05, 0.05),
        ]);
        assert!(compare_sweep(&rec, &rec, &CompareOptions::default()).is_empty());
    }

    #[test]
    fn sweep_point_sliding_behind_baseline_frontier_trips_gate() {
        let old = sweep_record(vec![
            sweep_point(10, 5.0, 0.01, 0.01),
            sweep_point(8, 6.0, 0.05, 0.05),
        ]);
        // The 0.05 point degrades so badly the baseline 0.01-threshold
        // frontier point now dominates its twin outright.
        let new = sweep_record(vec![
            sweep_point(10, 5.0, 0.01, 0.01),
            sweep_point(12, 5.5, 0.05, 0.05),
        ]);
        let regs = compare_sweep(&old, &new, &CompareOptions::default());
        assert!(
            regs.iter().any(|r| r.contains("frontier regression")),
            "{regs:?}"
        );
    }

    #[test]
    fn sweep_uniform_improvement_never_trips_gate() {
        let old = sweep_record(vec![
            sweep_point(10, 5.0, 0.01, 0.01),
            sweep_point(8, 6.0, 0.05, 0.05),
        ]);
        let new = sweep_record(vec![
            sweep_point(9, 4.5, 0.01, 0.01),
            sweep_point(7, 5.5, 0.04, 0.05),
        ]);
        assert!(compare_sweep(&old, &new, &CompareOptions::default()).is_empty());
    }

    #[test]
    fn sweep_literal_growth_trips_quality_gate() {
        let old = sweep_record(vec![sweep_point(100, 5.0, 0.01, 0.01)]);
        let mut worse = sweep_point(103, 5.0, 0.01, 0.01);
        worse.dominated = false;
        let new = sweep_record(vec![worse]);
        let regs = compare_sweep(&old, &new, &CompareOptions::default());
        assert!(regs.iter().any(|r| r.contains("literals 103")), "{regs:?}");
    }

    #[test]
    fn sweep_circuit_mismatch_is_an_error() {
        let old = sweep_record(vec![sweep_point(10, 5.0, 0.01, 0.01)]);
        let mut new = sweep_record(vec![sweep_point(10, 5.0, 0.01, 0.01)]);
        new.circuit = "KSA32".into();
        assert_eq!(
            compare_sweep(&old, &new, &CompareOptions::default()).len(),
            1
        );
    }

    #[test]
    fn quality_regression_trips_gate() {
        let old = record_with_runtime(1.0, 0.80);
        let new = record_with_runtime(1.0, 0.85);
        let regs = compare(&old, &new, &CompareOptions::default());
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert!(regs[0].contains("literal ratio"), "{regs:?}");
    }

    #[test]
    fn circuit_mismatch_is_an_error() {
        let old = record_with_runtime(1.0, 0.8);
        let mut new = record_with_runtime(1.0, 0.8);
        new.circuit = "KSA32".into();
        assert_eq!(compare(&old, &new, &CompareOptions::default()).len(), 1);
    }
}
