//! Detection-quality evaluation: confusion matrices and derived metrics
//! for the statistical engine and the ML baselines on the same dataset
//! (the paper reports 100 % detection accuracy against the non-evasive
//! attacker of §VII).

use crate::dataset::Dataset;
use crate::engine::{AnalysisEngine, Profile};
use crate::ml::Classifier;

/// A binary confusion matrix with derived metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Metrics {
    /// Anomalies flagged as anomalies.
    pub tp: u32,
    /// Normals flagged as anomalies.
    pub fp: u32,
    /// Normals passed as normal.
    pub tn: u32,
    /// Anomalies passed as normal.
    pub fn_: u32,
}

impl Metrics {
    /// Records one prediction.
    pub fn record(&mut self, predicted_anomalous: bool, actually_anomalous: bool) {
        match (predicted_anomalous, actually_anomalous) {
            (true, true) => self.tp += 1,
            (true, false) => self.fp += 1,
            (false, false) => self.tn += 1,
            (false, true) => self.fn_ += 1,
        }
    }

    /// Total predictions.
    pub fn total(&self) -> u32 {
        self.tp + self.fp + self.tn + self.fn_
    }

    /// Fraction of correct predictions.
    pub fn accuracy(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        (self.tp + self.tn) as f64 / self.total() as f64
    }

    /// TP / (TP + FP); 1.0 when nothing was flagged.
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            return 1.0;
        }
        self.tp as f64 / (self.tp + self.fp) as f64
    }

    /// TP / (TP + FN); 1.0 when there were no anomalies.
    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            return 1.0;
        }
        self.tp as f64 / (self.tp + self.fn_) as f64
    }

    /// Harmonic mean of precision and recall.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            return 0.0;
        }
        2.0 * p * r / (p + r)
    }
}

/// Evaluates the statistical engine: trains on the training set's normal
/// windows, tests on the test set.
pub fn evaluate_engine(train: &Dataset, test: &Dataset) -> (Profile, Metrics) {
    let profile = AnalysisEngine
        .train(&train.normals())
        .expect("nonempty normal training data");
    let mut m = Metrics::default();
    for (w, l) in test.windows.iter().zip(&test.labels) {
        let d = AnalysisEngine.detect(&profile, w);
        m.record(d.anomalous, *l > 0.5);
    }
    (profile, m)
}

/// Evaluates one ML baseline: fits on the training set, tests on the test
/// set.
pub fn evaluate_classifier(clf: &mut dyn Classifier, train: &Dataset, test: &Dataset) -> Metrics {
    clf.fit(&train.feature_matrix(), &train.labels);
    let mut m = Metrics::default();
    for (row, l) in test.feature_matrix().iter().zip(&test.labels) {
        m.record(clf.predict(row), *l > 0.5);
    }
    m
}

/// One row of an accuracy comparison.
#[derive(Clone, Debug)]
pub struct AccuracyRow {
    /// Approach name.
    pub name: &'static str,
    /// Metrics on the test set.
    pub metrics: Metrics,
}

/// Evaluates the engine and all baselines on a k-th split of `dataset`,
/// the seven ML baselines fitted on `jobs` worker threads. Every baseline
/// is deterministically seeded and fits on its own model state, so row
/// order ("Ours" first, then the baselines in
/// [`crate::ml::all_baselines`] order) and metrics are identical for any
/// job count.
pub fn compare_accuracy(dataset: &Dataset, every_kth: usize, jobs: usize) -> Vec<AccuracyRow> {
    let (train, test) = dataset.split_every_kth(every_kth);
    let (_, m) = evaluate_engine(&train, &test);
    let mut rows = vec![AccuracyRow {
        name: "Ours",
        metrics: m,
    }];
    rows.extend(btc_par::par_map(jobs, crate::ml::all_baselines(), |mut clf| {
        let name = clf.name();
        let metrics = evaluate_classifier(clf.as_mut(), &train, &test);
        AccuracyRow { name, metrics }
    }));
    rows
}

/// Renders an accuracy table.
pub fn render_accuracy(rows: &[AccuracyRow]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(
        out,
        "{:<8} {:>9} {:>10} {:>8} {:>6} {:>4} {:>4} {:>4} {:>4}",
        "Method", "accuracy", "precision", "recall", "F1", "TP", "FP", "TN", "FN"
    )
    .unwrap();
    for r in rows {
        writeln!(
            out,
            "{:<8} {:>9.3} {:>10.3} {:>8.3} {:>6.3} {:>4} {:>4} {:>4} {:>4}",
            r.name,
            r.metrics.accuracy(),
            r.metrics.precision(),
            r.metrics.recall(),
            r.metrics.f1(),
            r.metrics.tp,
            r.metrics.fp,
            r.metrics.tn,
            r.metrics.fn_
        )
        .unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::TrafficWindow;

    fn dataset() -> Dataset {
        let mut ds = Dataset::new();
        for seed in 0..100u64 {
            let mut w = TrafficWindow::empty(10.0);
            w.counts[12] = 1200 + seed % 200;
            w.counts[6] = 1000 + (seed * 7) % 150;
            w.counts[4] = 300 + (seed * 3) % 50;
            w.reconnects = seed % 2;
            ds.push(w, 0.0);
        }
        for seed in 0..40u64 {
            let mut w = TrafficWindow::empty(10.0);
            w.counts[12] = 1200;
            w.counts[6] = 1000;
            if seed % 2 == 0 {
                w.counts[4] = 120_000 + seed * 50;
            } else {
                w.counts[0] = 100;
                w.counts[1] = 80;
                w.counts[4] = 300;
                w.reconnects = 45 + seed;
            }
            ds.push(w, 1.0);
        }
        ds
    }

    #[test]
    fn metrics_arithmetic() {
        let mut m = Metrics::default();
        m.record(true, true);
        m.record(true, false);
        m.record(false, false);
        m.record(false, true);
        assert_eq!(m.total(), 4);
        assert_eq!(m.accuracy(), 0.5);
        assert_eq!(m.precision(), 0.5);
        assert_eq!(m.recall(), 0.5);
        assert_eq!(m.f1(), 0.5);
    }

    #[test]
    fn empty_metrics_are_safe() {
        let m = Metrics::default();
        assert_eq!(m.accuracy(), 0.0);
        assert_eq!(m.precision(), 1.0);
        assert_eq!(m.recall(), 1.0);
    }

    #[test]
    fn engine_achieves_paper_accuracy_against_naive_attacker() {
        let ds = dataset();
        let (train, test) = ds.split_every_kth(4);
        let (profile, m) = evaluate_engine(&train, &test);
        // The paper reports 100% against a non-evasive attacker.
        assert_eq!(m.accuracy(), 1.0, "{m:?} profile {profile:?}");
    }

    #[test]
    fn comparison_covers_all_methods_and_ours_leads() {
        let ds = dataset();
        let rows = compare_accuracy(&ds, 4, 1);
        assert_eq!(rows.len(), 8);
        let ours = rows.iter().find(|r| r.name == "Ours").unwrap();
        assert!(ours.metrics.accuracy() >= 0.95);
        // Supervised baselines should also do well on this easy dataset.
        let lr = rows.iter().find(|r| r.name == "LR").unwrap();
        assert!(lr.metrics.accuracy() >= 0.8, "{:?}", lr.metrics);
    }

    #[test]
    fn jobs_do_not_change_the_rendered_table() {
        let ds = dataset();
        assert_eq!(
            render_accuracy(&compare_accuracy(&ds, 4, 1)),
            render_accuracy(&compare_accuracy(&ds, 4, 4))
        );
    }

    #[test]
    fn render_has_header_and_rows() {
        let ds = dataset();
        let rows = compare_accuracy(&ds, 4, 1);
        let t = render_accuracy(&rows);
        assert!(t.contains("accuracy"));
        assert!(t.contains("Ours"));
        assert!(t.contains("AE"));
    }
}
