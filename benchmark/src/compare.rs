//! `benchmark compare A.json B.json`: how B (a change) measures against
//! A (its parent).
//!
//! For each workload in both files and each end-to-end metric, it shows
//! each side's median and quartiles over the raw samples, the pair wins
//! (launch i of A against launch i of B), and a verdict:
//!
//! * **worse** — B's value is worse than A's by more than the metric's
//!   `BENCHMARK.json` bound;
//! * **better** — B wins at least nine tenths of the pairs and the
//!   values differ by more than A's own quartile spread, or every
//!   sample of B beats every sample of A;
//! * **unresolved** — neither, and A's quartile spread is wider than the
//!   bound, so "no change" cannot be claimed;
//! * **unchanged** — otherwise.
//!
//! Deterministic counts (unit `count` or `bytes`) must match exactly;
//! any that differ are listed. `trace.overhead_ratio` is shown for both.

use crate::report::{SetResult, WorkloadResult};
use crate::spec::{spec, MetricSpec};
use crate::{median, quantile, Metric};
use std::fmt::Write as _;

/// The verdict on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B improves on A.
    Better,
    /// B regresses past the bound.
    Worse,
    /// The spread is too wide to say.
    Unresolved,
    /// Within the bound and within the noise.
    Unchanged,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Unchanged => "unchanged",
        }
    }
}

/// Pair wins and verdict of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Judgement {
    /// Pairs where B's sample beats A's.
    pub wins_b: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// B's value relative to A's, signed so that positive is worse.
    pub change: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Judges metric `b` against `a` under `declared`'s direction and bound.
pub fn judge(a: &Metric, b: &Metric, declared: &MetricSpec) -> Judgement {
    // Flip higher-is-better metrics so that lower is better below.
    let sign = if declared.higher_is_better { -1.0 } else { 1.0 };
    let signed = |m: &Metric| -> Vec<f64> {
        let raw = if m.samples.is_empty() { std::slice::from_ref(&m.value) } else { &m.samples };
        raw.iter().map(|v| sign * v).collect()
    };
    let (sa, sb) = (signed(a), signed(b));
    let (va, vb) = (sign * a.value, sign * b.value);
    let pairs = sa.len().min(sb.len());
    let wins_b = sa.iter().zip(&sb).filter(|(x, y)| y < x).count();
    let spread = quantile(&sa, 0.75) - quantile(&sa, 0.25);
    let change = if va == vb { 0.0 } else { (vb - va) / va.abs() };
    let bound = declared.bound.unwrap_or(0.0);
    let all_better = quantile(&sb, 1.0) < quantile(&sa, 0.0);
    let verdict = if change > bound {
        Verdict::Worse
    } else if all_better || (wins_b * 10 >= pairs * 9 && pairs > 0 && va - vb > spread) {
        Verdict::Better
    } else if spread / median(&sa).abs() > bound {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    };
    Judgement { wins_b, pairs, change, verdict }
}

/// The comparison report.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Human-readable report.
    pub text: String,
    /// Verdict per (workload, end-to-end metric), in report order.
    pub verdicts: Vec<(String, String, Verdict)>,
    /// `(workload, metric, A, B)` for every deterministic count that
    /// differs.
    pub count_diffs: Vec<(String, String, f64, f64)>,
    /// Workloads where B fails a larger share of operations than A.
    pub more_failures: Vec<String>,
}

impl Comparison {
    /// True when B regresses: a metric is worse, a count moved, or more
    /// operations failed.
    pub fn regressed(&self) -> bool {
        self.verdicts.iter().any(|(_, _, v)| *v == Verdict::Worse)
            || !self.count_diffs.is_empty()
            || !self.more_failures.is_empty()
    }
}

fn stats(m: &Metric) -> String {
    let s = if m.samples.is_empty() { std::slice::from_ref(&m.value) } else { &m.samples };
    format!(
        "{:.6} med {:.6} [{:.6}, {:.6}] n={}",
        m.value,
        median(s),
        quantile(s, 0.25),
        quantile(s, 0.75),
        s.len()
    )
}

fn fail_ratio(w: &WorkloadResult) -> f64 {
    w.failed as f64 / w.attempted.max(1) as f64
}

/// Compares result `b` against result `a`.
pub fn compare(a: &SetResult, b: &SetResult) -> Comparison {
    let mut out = String::new();
    let mut c = Comparison {
        text: String::new(),
        verdicts: Vec::new(),
        count_diffs: Vec::new(),
        more_failures: Vec::new(),
    };
    let line = |out: &mut String, text: String| {
        writeln!(out, "{text}").expect("writing to a String cannot fail");
    };
    line(
        &mut out,
        format!(
            "{:<15} {:<12} {:<56} {:<56} {:>9} {:>8}  verdict",
            "workload",
            "metric",
            "A value, median [q1, q3]",
            "B value, median [q1, q3]",
            "B wins",
            "change"
        ),
    );
    for wa in &a.workloads {
        let Some(wb) = b.workload(&wa.name) else { continue };
        for declared in &spec().end_to_end {
            let (Some(ma), Some(mb)) = (wa.metric(&declared.name), wb.metric(&declared.name))
            else {
                continue;
            };
            let j = judge(ma, mb, declared);
            line(
                &mut out,
                format!(
                    "{:<15} {:<12} {:<56} {:<56} {:>9} {:>+7.1}%  {}",
                    wa.name,
                    declared.name,
                    stats(ma),
                    stats(mb),
                    format!("{}/{}", j.wins_b, j.pairs),
                    j.change * 100.0,
                    j.verdict.label()
                ),
            );
            c.verdicts.push((wa.name.clone(), declared.name.clone(), j.verdict));
        }
        line(
            &mut out,
            format!(
                "{:<15} failed       A {}/{}  B {}/{}",
                wa.name, wa.failed, wa.attempted, wb.failed, wb.attempted
            ),
        );
        if fail_ratio(wb) > fail_ratio(wa) {
            c.more_failures.push(wa.name.clone());
        }
        let mut counts = 0;
        for ma in wa.per_layer.iter().filter(|m| m.unit == "count" || m.unit == "bytes") {
            let Some(mb) = wb.metric(&ma.name) else { continue };
            counts += 1;
            if ma.value != mb.value {
                line(
                    &mut out,
                    format!(
                        "{:<15} COUNT DIFFERS {}: A {} B {}",
                        wa.name, ma.name, ma.value, mb.value
                    ),
                );
                c.count_diffs.push((wa.name.clone(), ma.name.clone(), ma.value, mb.value));
            }
        }
        if counts > 0 {
            let same = counts - c.count_diffs.iter().filter(|d| d.0 == wa.name).count();
            line(&mut out, format!("{:<15} counts       {same}/{counts} identical", wa.name));
        }
        if let (Some(oa), Some(ob)) =
            (wa.metric("trace.overhead_ratio"), wb.metric("trace.overhead_ratio"))
        {
            line(
                &mut out,
                format!(
                    "{:<15} trace.overhead_ratio  A {:.4}  B {:.4}",
                    wa.name, oa.value, ob.value
                ),
            );
        }
    }
    let tally = |v: Verdict| c.verdicts.iter().filter(|x| x.2 == v).count();
    line(
        &mut out,
        format!(
            "summary: {} better, {} worse, {} unresolved, {} unchanged; {} counts differ; {} workloads fail more",
            tally(Verdict::Better),
            tally(Verdict::Worse),
            tally(Verdict::Unresolved),
            tally(Verdict::Unchanged),
            c.count_diffs.len(),
            c.more_failures.len()
        ),
    );
    c.text = out;
    c
}
