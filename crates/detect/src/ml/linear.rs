//! Linear baselines: logistic regression, a linear soft-margin SVM, and a
//! linear one-class SVM.

use super::{Classifier, Scaler};

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

/// Batch-gradient-descent logistic regression.
#[derive(Clone, Debug)]
pub struct LogisticRegression {
    w: Vec<f64>,
    b: f64,
    scaler: Scaler,
}

/// Logistic regression's gradient-descent epochs.
const LOGREG_EPOCHS: usize = 400;
/// Logistic regression's learning rate.
const LOGREG_LR: f64 = 0.5;

impl LogisticRegression {
    /// Creates an untrained model.
    pub fn new() -> Self {
        LogisticRegression {
            w: Vec::new(),
            b: 0.0,
            scaler: Scaler::default(),
        }
    }
}

impl Default for LogisticRegression {
    fn default() -> Self {
        Self::new()
    }
}

impl Classifier for LogisticRegression {
    fn name(&self) -> &'static str {
        "LR"
    }

    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) {
        self.scaler = Scaler::fit(x);
        let rows: Vec<Vec<f64>> = x.iter().map(|r| self.scaler.transform(r)).collect();
        let d = rows.first().map(|r| r.len()).unwrap_or(0);
        self.w = vec![0.0; d];
        self.b = 0.0;
        let n = rows.len().max(1) as f64;
        for _ in 0..LOGREG_EPOCHS {
            let mut gw = vec![0.0; d];
            let mut gb = 0.0;
            for (row, label) in rows.iter().zip(y) {
                let err = sigmoid(dot(&self.w, row) + self.b) - label;
                for (g, v) in gw.iter_mut().zip(row) {
                    *g += err * v;
                }
                gb += err;
            }
            for (w, g) in self.w.iter_mut().zip(&gw) {
                *w -= LOGREG_LR * g / n;
            }
            self.b -= LOGREG_LR * gb / n;
        }
    }

    fn score(&self, x: &[f64]) -> f64 {
        let row = self.scaler.transform(x);
        sigmoid(dot(&self.w, &row) + self.b)
    }
}

/// Linear soft-margin SVM trained by subgradient descent on the hinge loss.
#[derive(Clone, Debug)]
pub struct LinearSvm {
    w: Vec<f64>,
    b: f64,
    scaler: Scaler,
}

/// The SVM's epochs.
const SVM_EPOCHS: usize = 400;
/// The SVM's learning rate.
const SVM_LR: f64 = 0.1;
/// The SVM's L2 regularization strength.
const SVM_LAMBDA: f64 = 1e-3;

impl LinearSvm {
    /// Creates an untrained model.
    pub fn new() -> Self {
        LinearSvm {
            w: Vec::new(),
            b: 0.0,
            scaler: Scaler::default(),
        }
    }
}

impl Default for LinearSvm {
    fn default() -> Self {
        Self::new()
    }
}

impl Classifier for LinearSvm {
    fn name(&self) -> &'static str {
        "SVM"
    }

    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) {
        self.scaler = Scaler::fit(x);
        let rows: Vec<Vec<f64>> = x.iter().map(|r| self.scaler.transform(r)).collect();
        let d = rows.first().map(|r| r.len()).unwrap_or(0);
        self.w = vec![0.0; d];
        self.b = 0.0;
        let n = rows.len().max(1) as f64;
        for _ in 0..SVM_EPOCHS {
            let mut gw: Vec<f64> = self.w.iter().map(|w| SVM_LAMBDA * w).collect();
            let mut gb = 0.0;
            for (row, label) in rows.iter().zip(y) {
                let t = if *label > 0.5 { 1.0 } else { -1.0 };
                let margin = t * (dot(&self.w, row) + self.b);
                if margin < 1.0 {
                    for (g, v) in gw.iter_mut().zip(row) {
                        *g -= t * v / n;
                    }
                    gb -= t / n;
                }
            }
            for (w, g) in self.w.iter_mut().zip(&gw) {
                *w -= SVM_LR * g;
            }
            self.b -= SVM_LR * gb;
        }
    }

    fn score(&self, x: &[f64]) -> f64 {
        let row = self.scaler.transform(x);
        sigmoid(dot(&self.w, &row) + self.b)
    }
}

/// One-class SVM (Schölkopf ν-formulation, SGD) over an exponential
/// similarity feature map: each input column is mapped to
/// `exp(-|x_i - μ_i| / σ_i)`, so normal windows land near the all-ones
/// corner and anomalies fall toward the origin — the geometry the
/// separating-from-the-origin formulation needs. Trained only on rows
/// labelled normal.
#[derive(Clone, Debug)]
pub struct OneClassSvm {
    w: Vec<f64>,
    rho: f64,
    scaler: Scaler,
}

/// The one-class SVM's epochs.
const OCSVM_EPOCHS: usize = 400;
/// The one-class SVM's learning rate.
const OCSVM_LR: f64 = 0.05;
/// ν: fraction of training data allowed outside.
const OCSVM_NU: f64 = 0.05;

impl OneClassSvm {
    /// Creates an untrained model.
    pub fn new() -> Self {
        OneClassSvm {
            w: Vec::new(),
            rho: 0.0,
            scaler: Scaler::default(),
        }
    }
}

impl Default for OneClassSvm {
    fn default() -> Self {
        Self::new()
    }
}

impl OneClassSvm {
    /// The exponential similarity map (see the type docs).
    fn feature_map(&self, x: &[f64]) -> Vec<f64> {
        self.scaler
            .transform(x)
            .into_iter()
            .map(|z| (-z.abs()).exp())
            .collect()
    }
}

impl Classifier for OneClassSvm {
    fn name(&self) -> &'static str {
        "OC-SVM"
    }

    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) {
        let normals: Vec<&Vec<f64>> = x
            .iter()
            .zip(y)
            .filter(|(_, l)| **l < 0.5)
            .map(|(r, _)| r)
            .collect();
        let normal_rows: Vec<Vec<f64>> = normals.iter().map(|r| (**r).clone()).collect();
        self.scaler = Scaler::fit(&normal_rows);
        let rows: Vec<Vec<f64>> = normal_rows.iter().map(|r| self.feature_map(r)).collect();
        let d = rows.first().map(|r| r.len()).unwrap_or(0);
        self.w = vec![0.1; d];
        self.rho = 0.0;
        let n = rows.len().max(1) as f64;
        let inv_nu_n = 1.0 / (OCSVM_NU * n);
        for _ in 0..OCSVM_EPOCHS {
            let mut gw: Vec<f64> = self.w.clone(); // d/dw of ||w||²/2
            let mut grho = -1.0;
            for row in &rows {
                if dot(&self.w, row) < self.rho {
                    for (g, v) in gw.iter_mut().zip(row) {
                        *g -= inv_nu_n * v;
                    }
                    grho += inv_nu_n;
                }
            }
            for (w, g) in self.w.iter_mut().zip(&gw) {
                *w -= OCSVM_LR * g / n.sqrt();
            }
            self.rho -= OCSVM_LR * grho;
        }
    }

    fn score(&self, x: &[f64]) -> f64 {
        let row = self.feature_map(x);
        // Below the hyperplane → anomalous.
        sigmoid((self.rho - dot(&self.w, &row)) * 8.0)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{accuracy, assert_learns, dataset};
    use super::*;

    #[test]
    fn logistic_regression_learns() {
        assert_learns(Box::new(LogisticRegression::new()));
    }

    #[test]
    fn svm_learns() {
        assert_learns(Box::new(LinearSvm::new()));
    }

    #[test]
    fn ocsvm_flags_anomalies_without_labels() {
        let (x, y) = dataset();
        let mut m = OneClassSvm::new();
        m.fit(&x, &y);
        let acc = accuracy(&m, &x, &y);
        // Unsupervised: lower bar than the supervised models.
        assert!(acc >= 0.7, "OC-SVM accuracy {acc}");
    }

    #[test]
    fn untrained_models_dont_panic() {
        let m = LogisticRegression::new();
        // Degenerate: no weights yet → dot of empty slices.
        assert!((0.0..=1.0).contains(&m.score(&[])));
    }

    #[test]
    fn scores_are_probabilities() {
        let (x, y) = dataset();
        let mut m = LogisticRegression::new();
        m.fit(&x, &y);
        for row in &x {
            let s = m.score(row);
            assert!((0.0..=1.0).contains(&s));
        }
    }
}
