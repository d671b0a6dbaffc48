//! Aggregation and rendering of the paper's figures and tables.
//!
//! Every renderer returns a `String`, so the binaries print and the
//! integration tests assert on the same artefacts. CSV exports carry the
//! underlying numbers for external plotting.

use crate::runner::SweepResult;
use emigre_core::Method;
use std::collections::HashSet;

/// Success rate per method — the paper's Figure 4.
pub fn figure4(sweep: &SweepResult) -> Vec<(Method, f64)> {
    sweep
        .methods
        .iter()
        .map(|&m| {
            let records = sweep.for_method(m);
            let total = records.len().max(1);
            let ok = records.iter().filter(|r| r.outcome.success()).count();
            (m, 100.0 * ok as f64 / total as f64)
        })
        .collect()
}

/// Success rate of remove-mode methods restricted to the scenarios the
/// brute-force baseline solved — the paper's Figure 5 ("success rate
/// relative to brute force").
pub fn figure5(sweep: &SweepResult) -> Vec<(Method, f64)> {
    let solvable: HashSet<_> = sweep
        .solved_scenarios(Method::RemoveBruteForce)
        .into_iter()
        .map(|s| (s.user, s.wni))
        .collect();
    let remove_methods = [
        Method::RemoveIncremental,
        Method::RemovePowerset,
        Method::RemoveExhaustive,
        Method::RemoveExhaustiveDirect,
        Method::RemoveBruteForce,
    ];
    remove_methods
        .iter()
        .filter(|m| sweep.methods.contains(m))
        .map(|&m| {
            let records: Vec<_> = sweep
                .for_method(m)
                .into_iter()
                .filter(|r| solvable.contains(&(r.scenario.user, r.scenario.wni)))
                .collect();
            let total = records.len().max(1);
            let ok = records.iter().filter(|r| r.outcome.success()).count();
            (m, 100.0 * ok as f64 / total as f64)
        })
        .collect()
}

/// Average explanation size per method (over produced explanations) — the
/// paper's Figure 6.
pub fn figure6(sweep: &SweepResult) -> Vec<(Method, f64)> {
    sweep
        .methods
        .iter()
        .map(|&m| {
            let sizes: Vec<usize> = sweep
                .for_method(m)
                .iter()
                .filter_map(|r| r.outcome.size())
                .collect();
            let avg = if sizes.is_empty() {
                0.0
            } else {
                sizes.iter().sum::<usize>() as f64 / sizes.len() as f64
            };
            (m, avg)
        })
        .collect()
}

/// One row of Table 5: mean runtime (a) overall, (b) when an explanation
/// was found, (c) when none was found.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table5Row {
    pub method: Method,
    pub general: f64,
    pub found: f64,
    pub not_found: f64,
}

/// Average runtimes per method — the paper's Table 5.
pub fn table5(sweep: &SweepResult) -> Vec<Table5Row> {
    sweep
        .methods
        .iter()
        .map(|&m| {
            let records = sweep.for_method(m);
            let mean = |xs: &[f64]| {
                if xs.is_empty() {
                    0.0
                } else {
                    xs.iter().sum::<f64>() / xs.len() as f64
                }
            };
            let all: Vec<f64> = records.iter().map(|r| r.runtime_secs).collect();
            let found: Vec<f64> = records
                .iter()
                .filter(|r| r.outcome.size().is_some())
                .map(|r| r.runtime_secs)
                .collect();
            let not_found: Vec<f64> = records
                .iter()
                .filter(|r| r.outcome.size().is_none())
                .map(|r| r.runtime_secs)
                .collect();
            Table5Row {
                method: m,
                general: mean(&all),
                found: mean(&found),
                not_found: mean(&not_found),
            }
        })
        .collect()
}

/// Breakdown of failure meta-explanations per method (§6.4): how many
/// failures were cold starts, popular items, out-of-scope, or budget
/// truncations. The paper proposes surfacing exactly this to the user as
/// a remedy for the low remove-mode success rate.
pub fn failure_breakdown(sweep: &SweepResult) -> Vec<(Method, Vec<(String, usize)>)> {
    use crate::runner::MethodOutcome;
    use emigre_core::FailureReason;
    sweep
        .methods
        .iter()
        .map(|&m| {
            let mut counts: Vec<(String, usize)> = vec![
                ("cold-start".into(), 0),
                ("popular-item".into(), 0),
                ("out-of-scope".into(), 0),
                ("budget".into(), 0),
                ("wrong-unverified".into(), 0),
            ];
            for r in sweep.for_method(m) {
                match r.outcome {
                    MethodOutcome::NotFound { reason } => {
                        let idx = match reason {
                            FailureReason::ColdStart { .. } => 0,
                            FailureReason::PopularItem { .. } => 1,
                            FailureReason::OutOfScope { .. } => 2,
                            FailureReason::BudgetExhausted { .. } => 3,
                        };
                        counts[idx].1 += 1;
                    }
                    MethodOutcome::FoundUnverified { correct: false, .. } => counts[4].1 += 1,
                    _ => {}
                }
            }
            (m, counts)
        })
        .collect()
}

/// Success rate as a function of the Why-Not item's original rank —
/// quantifies the intuition behind the paper's feasibility discussion:
/// the further down the list the target sits, the larger the gap the
/// counterfactual must close. Returns `(rank, attempts, success_pct)` per
/// rank, aggregated over all methods in `methods` (or all sweep methods
/// when empty).
pub fn success_by_rank(sweep: &SweepResult, methods: &[Method]) -> Vec<(usize, usize, f64)> {
    let mut per_rank: std::collections::BTreeMap<usize, (usize, usize)> =
        std::collections::BTreeMap::new();
    for r in &sweep.records {
        if !methods.is_empty() && !methods.contains(&r.method) {
            continue;
        }
        let e = per_rank.entry(r.scenario.wni_rank).or_insert((0, 0));
        e.0 += 1;
        if r.outcome.success() {
            e.1 += 1;
        }
    }
    per_rank
        .into_iter()
        .map(|(rank, (total, ok))| (rank, total, 100.0 * ok as f64 / total.max(1) as f64))
        .collect()
}

/// Renders the per-rank success table.
pub fn success_by_rank_text(rows: &[(usize, usize, f64)]) -> String {
    let mut s = String::from("Success rate by Why-Not item rank (all methods pooled):\n");
    s.push_str(&format!(
        "{:<6} {:>10} {:>12}\n",
        "rank", "attempts", "success"
    ));
    for (rank, attempts, pct) in rows {
        s.push_str(&format!("{rank:<6} {attempts:>10} {pct:>11.1}%\n"));
    }
    s
}

/// Renders the failure breakdown as a table.
pub fn failure_breakdown_text(rows: &[(Method, Vec<(String, usize)>)]) -> String {
    let mut s = String::from("Failure meta-explanations per method (§6.4):\n");
    if let Some((_, first)) = rows.first() {
        s.push_str(&format!("{:<22}", "Method"));
        for (name, _) in first {
            s.push_str(&format!("{name:>18}"));
        }
        s.push('\n');
    }
    for (m, counts) in rows {
        s.push_str(&format!("{:<22}", m.label()));
        for (_, c) in counts {
            s.push_str(&format!("{c:>18}"));
        }
        s.push('\n');
    }
    s
}

/// Renders a labelled horizontal ASCII bar chart (used for the figures).
pub fn bar_chart(title: &str, rows: &[(Method, f64)], unit: &str, max_hint: f64) -> String {
    let mut s = format!("{title}\n");
    let max = rows
        .iter()
        .map(|(_, v)| *v)
        .fold(max_hint, f64::max)
        .max(1e-9);
    for (m, v) in rows {
        let width = ((v / max) * 50.0).round() as usize;
        s.push_str(&format!(
            "{:<22} {:>8.2}{unit} |{}\n",
            m.label(),
            v,
            "#".repeat(width)
        ));
    }
    s
}

/// Renders Table 5 in the paper's layout.
pub fn table5_text(rows: &[Table5Row]) -> String {
    let mut s = String::from(
        "Average runtime in seconds per method: (a) general, (b) explanation found,\n\
         (c) no explanation found.\n",
    );
    s.push_str(&format!(
        "{:<22} {:>12} {:>12} {:>12}\n",
        "Method", "(a)", "(b)", "(c)"
    ));
    for r in rows {
        s.push_str(&format!(
            "{:<22} {:>12.4} {:>12.4} {:>12.4}\n",
            r.method.label(),
            r.general,
            r.found,
            r.not_found
        ));
    }
    s
}

/// CSV with one row per method: label, figure-4, figure-5 (if remove),
/// figure-6, table-5 columns.
pub fn summary_csv(sweep: &SweepResult) -> String {
    let f4 = figure4(sweep);
    let f5 = figure5(sweep);
    let f6 = figure6(sweep);
    let t5 = table5(sweep);
    let mut s = String::from(
        "method,success_rate_pct,success_rate_rel_brute_pct,avg_size,runtime_general_s,\
         runtime_found_s,runtime_not_found_s\n",
    );
    for (i, &m) in sweep.methods.iter().enumerate() {
        let rel = f5
            .iter()
            .find(|(x, _)| *x == m)
            .map(|(_, v)| format!("{v:.2}"))
            .unwrap_or_default();
        s.push_str(&format!(
            "{},{:.2},{},{:.3},{:.6},{:.6},{:.6}\n",
            m.label(),
            f4[i].1,
            rel,
            f6[i].1,
            t5[i].general,
            t5[i].found,
            t5[i].not_found
        ));
    }
    s
}

/// Aggregate op counters per method: the sum of every run's snapshot.
/// All-zero rows simply mean the sweep ran without observability.
pub fn counters_by_method(sweep: &SweepResult) -> Vec<(Method, emigre_obs::CounterSnapshot)> {
    sweep
        .methods
        .iter()
        .map(|&m| {
            let mut total = emigre_obs::CounterSnapshot::default();
            for r in sweep.for_method(m) {
                total.accumulate(&r.counters);
            }
            (m, total)
        })
        .collect()
}

/// Renders the per-method counter aggregates as a table.
pub fn counters_text(rows: &[(Method, emigre_obs::CounterSnapshot)]) -> String {
    let mut s = String::from("Aggregate op counters per method:\n");
    s.push_str(&format!(
        "{:<22} {:>12} {:>12} {:>12} {:>10} {:>10} {:>12} {:>10} {:>14}\n",
        "Method",
        "fwd_push",
        "rev_push",
        "rows_patch",
        "checks",
        "subsets",
        "cand_hits",
        "stages",
        "mass_drained"
    ));
    for (m, c) in rows {
        s.push_str(&format!(
            "{:<22} {:>12} {:>12} {:>12} {:>10} {:>10} {:>12} {:>10} {:>14.4}\n",
            m.label(),
            c.forward_pushes,
            c.reverse_pushes,
            c.rows_patched,
            c.checks,
            c.subsets_enumerated,
            c.candidate_index_hits,
            c.check_stages,
            c.residual_mass_drained
        ));
    }
    s
}

/// CSV with one row per method: aggregate counters (see
/// [`counters_by_method`]).
pub fn counters_csv(sweep: &SweepResult) -> String {
    let mut s = String::from(
        "method,forward_pushes,reverse_pushes,rows_patched,checks,subsets_enumerated,\
         candidate_index_hits,check_stages,residual_mass_drained\n",
    );
    for (m, c) in counters_by_method(sweep) {
        s.push_str(&format!(
            "{},{},{},{},{},{},{},{},{:.6}\n",
            m.label(),
            c.forward_pushes,
            c.reverse_pushes,
            c.rows_patched,
            c.checks,
            c.subsets_enumerated,
            c.candidate_index_hits,
            c.check_stages,
            c.residual_mass_drained
        ));
    }
    s
}

/// Per-record CSV (the raw sweep data).
pub fn records_csv(sweep: &SweepResult) -> String {
    let mut s = String::from("user,wni,wni_rank,method,success,size,runtime_s,checks,outcome\n");
    for r in &sweep.records {
        s.push_str(&format!(
            "{},{},{},{},{},{},{:.6},{},{:?}\n",
            r.scenario.user.0,
            r.scenario.wni.0,
            r.scenario.wni_rank,
            r.method.label(),
            r.outcome.success(),
            r.outcome.size().map(|v| v.to_string()).unwrap_or_default(),
            r.runtime_secs,
            r.checks,
            r.outcome
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{MethodOutcome, RunRecord};
    use crate::scenario::Scenario;
    use emigre_core::FailureReason;
    use emigre_hin::NodeId;

    fn record(user: u32, wni: u32, method: Method, outcome: MethodOutcome, t: f64) -> RunRecord {
        RunRecord {
            scenario: Scenario {
                user: NodeId(user),
                wni: NodeId(wni),
                rec: NodeId(99),
                wni_rank: 2,
            },
            method,
            outcome,
            runtime_secs: t,
            checks: 1,
            counters: emigre_obs::CounterSnapshot {
                checks: 1,
                forward_pushes: 10,
                ..Default::default()
            },
            spans: Vec::new(),
        }
    }

    fn sample_sweep() -> SweepResult {
        let methods = vec![
            Method::RemovePowerset,
            Method::RemoveExhaustiveDirect,
            Method::RemoveBruteForce,
        ];
        let records = vec![
            // scenario (1, 10): solvable by brute; powerset finds it too
            record(
                1,
                10,
                Method::RemovePowerset,
                MethodOutcome::Found { size: 2 },
                0.2,
            ),
            record(
                1,
                10,
                Method::RemoveExhaustiveDirect,
                MethodOutcome::FoundUnverified {
                    size: 1,
                    correct: false,
                },
                0.05,
            ),
            record(
                1,
                10,
                Method::RemoveBruteForce,
                MethodOutcome::Found { size: 2 },
                1.0,
            ),
            // scenario (2, 20): nobody solves it
            record(
                2,
                20,
                Method::RemovePowerset,
                MethodOutcome::NotFound {
                    reason: FailureReason::OutOfScope {
                        mode: emigre_core::Mode::Remove,
                    },
                },
                0.4,
            ),
            record(
                2,
                20,
                Method::RemoveExhaustiveDirect,
                MethodOutcome::NotFound {
                    reason: FailureReason::OutOfScope {
                        mode: emigre_core::Mode::Remove,
                    },
                },
                0.1,
            ),
            record(
                2,
                20,
                Method::RemoveBruteForce,
                MethodOutcome::NotFound {
                    reason: FailureReason::OutOfScope {
                        mode: emigre_core::Mode::Remove,
                    },
                },
                2.0,
            ),
        ];
        SweepResult {
            methods,
            num_scenarios: 2,
            records,
        }
    }

    #[test]
    fn figure4_counts_only_correct_answers() {
        let sweep = sample_sweep();
        let f4 = figure4(&sweep);
        assert_eq!(f4[0], (Method::RemovePowerset, 50.0));
        // direct produced an explanation but it was wrong → 0%.
        assert_eq!(f4[1], (Method::RemoveExhaustiveDirect, 0.0));
        assert_eq!(f4[2], (Method::RemoveBruteForce, 50.0));
    }

    #[test]
    fn figure5_conditions_on_brute_solvable() {
        let sweep = sample_sweep();
        let f5 = figure5(&sweep);
        // Only scenario (1,10) is brute-solvable; powerset solves it → 100%.
        let ps = f5
            .iter()
            .find(|(m, _)| *m == Method::RemovePowerset)
            .unwrap();
        assert_eq!(ps.1, 100.0);
        let brute = f5
            .iter()
            .find(|(m, _)| *m == Method::RemoveBruteForce)
            .unwrap();
        assert_eq!(brute.1, 100.0);
        let direct = f5
            .iter()
            .find(|(m, _)| *m == Method::RemoveExhaustiveDirect)
            .unwrap();
        assert_eq!(direct.1, 0.0);
    }

    #[test]
    fn figure6_averages_produced_sizes_even_unverified() {
        let sweep = sample_sweep();
        let f6 = figure6(&sweep);
        assert_eq!(f6[0].1, 2.0);
        assert_eq!(f6[1].1, 1.0); // the unverified size still counts as output
    }

    #[test]
    fn table5_splits_found_and_not_found() {
        let sweep = sample_sweep();
        let t5 = table5(&sweep);
        let brute = t5
            .iter()
            .find(|r| r.method == Method::RemoveBruteForce)
            .unwrap();
        assert!((brute.general - 1.5).abs() < 1e-12);
        assert!((brute.found - 1.0).abs() < 1e-12);
        assert!((brute.not_found - 2.0).abs() < 1e-12);
    }

    #[test]
    fn success_by_rank_aggregates() {
        let sweep = sample_sweep();
        let rows = success_by_rank(&sweep, &[]);
        // All sample scenarios carry rank 2.
        assert_eq!(rows.len(), 1);
        let (rank, attempts, pct) = rows[0];
        assert_eq!(rank, 2);
        assert_eq!(attempts, 6);
        // 2 successes (powerset + brute on scenario 1) of 6.
        assert!((pct - 100.0 * 2.0 / 6.0).abs() < 1e-9);
        let filtered = success_by_rank(&sweep, &[Method::RemovePowerset]);
        assert_eq!(filtered[0].1, 2);
        let text = success_by_rank_text(&rows);
        assert!(text.contains("rank"));
    }

    #[test]
    fn failure_breakdown_counts_reasons() {
        let sweep = sample_sweep();
        let rows = failure_breakdown(&sweep);
        let direct = rows
            .iter()
            .find(|(m, _)| *m == Method::RemoveExhaustiveDirect)
            .unwrap();
        // One wrong unverified answer + one out-of-scope failure.
        let get = |name: &str| {
            direct
                .1
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, c)| *c)
                .unwrap()
        };
        assert_eq!(get("wrong-unverified"), 1);
        assert_eq!(get("out-of-scope"), 1);
        assert_eq!(get("cold-start"), 0);
        let text = failure_breakdown_text(&rows);
        assert!(text.contains("popular-item"));
    }

    #[test]
    fn counter_aggregates_sum_per_method() {
        let sweep = sample_sweep();
        let rows = counters_by_method(&sweep);
        assert_eq!(rows.len(), sweep.methods.len());
        // Each method in the sample sweep has exactly two records, each
        // carrying checks = 1 and forward_pushes = 10.
        for (_, c) in &rows {
            assert_eq!(c.checks, 2);
            assert_eq!(c.forward_pushes, 20);
        }
        let text = counters_text(&rows);
        assert!(text.contains("fwd_push") && text.contains("remove_Powerset"));
        let csv = counters_csv(&sweep);
        assert_eq!(csv.lines().count(), 1 + sweep.methods.len());
    }

    #[test]
    fn renderers_include_all_methods() {
        let sweep = sample_sweep();
        let f4 = figure4(&sweep);
        let chart = bar_chart("Figure 4", &f4, "%", 100.0);
        assert!(chart.contains("remove_Powerset"));
        assert!(chart.contains("remove_brute"));
        let t5 = table5_text(&table5(&sweep));
        assert!(t5.contains("(a)") && t5.contains("remove_ex_direct"));
        let csv = summary_csv(&sweep);
        assert_eq!(csv.lines().count(), 1 + sweep.methods.len());
        let raw = records_csv(&sweep);
        assert_eq!(raw.lines().count(), 1 + sweep.records.len());
    }
}
