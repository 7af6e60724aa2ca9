//! The seven ML baseline detectors of Figure 11 — Logistic Regression,
//! Gradient Boosting, Random Forest, SVM, DNN, One-Class SVM and
//! AutoEncoder — implemented from scratch so training/testing latencies
//! can be compared against the statistical engine on equal footing.
//!
//! Each baseline is small but real: iterative optimization over the same
//! feature windows the statistical engine consumes in one pass. The paper
//! compares wall-clock latencies, not accuracies, so model capacity is
//! chosen to be representative rather than state-of-the-art.

pub mod linear;
pub mod nn;
pub mod tree;

pub use linear::{LinearSvm, LogisticRegression, OneClassSvm};
pub use nn::{AutoEncoder, DeepNet};
pub use tree::{GradientBoosting, RandomForest};

/// A trainable anomaly classifier over flat feature vectors.
///
/// Labels are `0.0` (normal) / `1.0` (anomalous); scores above `0.5` mean
/// anomalous. Unsupervised baselines (One-Class SVM, AutoEncoder) ignore
/// the anomalous rows during fitting and learn the normal manifold only.
///
/// `Send` is a supertrait so boxed baselines can be fitted on worker
/// threads during the parallel evaluation sweeps (every implementation is
/// plain owned data).
pub trait Classifier: Send {
    /// Model name as shown in Figure 11.
    fn name(&self) -> &'static str;
    /// Trains on rows `x` with labels `y`.
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]);
    /// Anomaly score in roughly `[0, 1]`.
    fn score(&self, x: &[f64]) -> f64;
    /// Binary decision.
    fn predict(&self, x: &[f64]) -> bool {
        self.score(x) > 0.5
    }
}

/// Instantiates all seven baselines with deterministic seeds.
pub fn all_baselines() -> Vec<Box<dyn Classifier>> {
    vec![
        Box::new(LogisticRegression::new()),
        Box::new(GradientBoosting::new()),
        Box::new(RandomForest::new(42)),
        Box::new(LinearSvm::new()),
        Box::new(DeepNet::new(42)),
        Box::new(OneClassSvm::new()),
        Box::new(AutoEncoder::new(42)),
    ]
}

/// Per-feature standardization fitted on training data.
#[derive(Clone, Debug, Default)]
pub struct Scaler {
    mean: Vec<f64>,
    std: Vec<f64>,
}

impl Scaler {
    /// Fits mean/std per column.
    pub fn fit(x: &[Vec<f64>]) -> Self {
        let d = x.first().map(|r| r.len()).unwrap_or(0);
        let n = x.len().max(1) as f64;
        let mut mean = vec![0.0; d];
        for row in x {
            for (m, v) in mean.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in mean.iter_mut() {
            *m /= n;
        }
        let mut std = vec![0.0; d];
        for row in x {
            for ((s, v), m) in std.iter_mut().zip(row).zip(&mean) {
                *s += (v - m) * (v - m);
            }
        }
        for s in std.iter_mut() {
            *s = (*s / n).sqrt().max(1e-9);
        }
        Scaler { mean, std }
    }

    /// Standardizes one row.
    pub fn transform(&self, row: &[f64]) -> Vec<f64> {
        row.iter()
            .zip(self.mean.iter().zip(&self.std))
            .map(|(v, (m, s))| (v - m) / s)
            .collect()
    }
}

/// A tiny deterministic generator for the stochastic baselines.
#[derive(Clone, Debug)]
pub(crate) struct MlRng(u64);

impl MlRng {
    pub(crate) fn new(seed: u64) -> Self {
        MlRng(seed.wrapping_mul(0x9e3779b97f4a7c15) | 1)
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        // xorshift64*.
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    pub(crate) fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    pub(crate) fn gen_range(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// Uniform in [-scale, scale].
    pub(crate) fn weight(&mut self, scale: f64) -> f64 {
        (self.gen_f64() * 2.0 - 1.0) * scale
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use crate::features::{TrafficWindow, NUM_TYPES};

    /// Builds a labelled dataset: normal windows + ping-flood +
    /// defamation anomalies.
    pub(crate) fn dataset() -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for seed in 0..120u64 {
            let mut w = TrafficWindow::empty(10.0);
            w.counts[12] = 1200 + seed % 200;
            w.counts[6] = 1000 + (seed * 7) % 150;
            w.counts[4] = 300 + (seed * 3) % 50;
            w.counts[5] = 300;
            w.counts[0] = 2;
            w.counts[1] = 2;
            w.reconnects = seed % 2;
            x.push(w.feature_vector());
            y.push(0.0);
        }
        for seed in 0..60u64 {
            let mut w = TrafficWindow::empty(10.0);
            w.counts[12] = 1200;
            w.counts[6] = 1000;
            if seed % 2 == 0 {
                // Ping flood.
                w.counts[4] = 100_000 + seed * 100;
            } else {
                // Defamation churn.
                w.counts[0] = 120;
                w.counts[1] = 90;
                w.counts[4] = 300;
                w.reconnects = 40 + seed;
            }
            x.push(w.feature_vector());
            y.push(1.0);
        }
        (x, y)
    }

    /// Accuracy of a trained classifier on the dataset.
    pub(crate) fn accuracy(clf: &dyn Classifier, x: &[Vec<f64>], y: &[f64]) -> f64 {
        let correct = x
            .iter()
            .zip(y)
            .filter(|(row, label)| clf.predict(row) == (**label > 0.5))
            .count();
        correct as f64 / x.len() as f64
    }

    pub(crate) fn assert_learns(mut clf: Box<dyn Classifier>) {
        let (x, y) = dataset();
        clf.fit(&x, &y);
        let acc = accuracy(clf.as_ref(), &x, &y);
        assert!(acc >= 0.9, "{} training accuracy {acc}", clf.name());
        let _ = NUM_TYPES;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaler_standardizes() {
        let x = vec![vec![1.0, 10.0], vec![3.0, 30.0]];
        let s = Scaler::fit(&x);
        let t = s.transform(&[2.0, 20.0]);
        assert!(t.iter().all(|v| v.abs() < 1e-9), "{t:?}");
        let t = s.transform(&[3.0, 30.0]);
        assert!((t[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rng_is_deterministic() {
        let mut a = MlRng::new(7);
        let mut b = MlRng::new(7);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn seven_baselines() {
        let names: Vec<&str> = all_baselines().iter().map(|b| b.name()).collect();
        assert_eq!(names, vec!["LR", "GB", "RF", "SVM", "DNN", "OC-SVM", "AE"]);
    }
}
