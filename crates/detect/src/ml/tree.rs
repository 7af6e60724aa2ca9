//! Tree-based baselines: gradient boosting over regression stumps and a
//! random forest of depth-bounded CART trees.

use super::{Classifier, MlRng};

/// A depth-1 regression stump: `x[feature] <= threshold ? left : right`.
#[derive(Clone, Copy, Debug)]
struct Stump {
    feature: usize,
    threshold: f64,
    left: f64,
    right: f64,
}

impl Stump {
    fn predict(&self, x: &[f64]) -> f64 {
        if x.get(self.feature).copied().unwrap_or(0.0) <= self.threshold {
            self.left
        } else {
            self.right
        }
    }

    /// Least-squares fit of the best stump to residuals.
    fn fit(x: &[Vec<f64>], residuals: &[f64]) -> Stump {
        let d = x.first().map(|r| r.len()).unwrap_or(0);
        let mut best = Stump {
            feature: 0,
            threshold: 0.0,
            left: 0.0,
            right: 0.0,
        };
        let mut best_err = f64::INFINITY;
        for feature in 0..d {
            // Candidate thresholds: quartiles of the feature values.
            let mut vals: Vec<f64> = x.iter().map(|r| r[feature]).collect();
            vals.sort_by(|a, b| a.partial_cmp(b).expect("no NaN features"));
            vals.dedup();
            if vals.len() < 2 {
                continue;
            }
            for q in [0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875] {
                let threshold = vals[((vals.len() - 1) as f64 * q) as usize];
                let (mut ls, mut lc, mut rs, mut rc) = (0.0, 0u32, 0.0, 0u32);
                for (row, r) in x.iter().zip(residuals) {
                    if row[feature] <= threshold {
                        ls += r;
                        lc += 1;
                    } else {
                        rs += r;
                        rc += 1;
                    }
                }
                if lc == 0 || rc == 0 {
                    continue;
                }
                let left = ls / lc as f64;
                let right = rs / rc as f64;
                let err: f64 = x
                    .iter()
                    .zip(residuals)
                    .map(|(row, r)| {
                        let p = if row[feature] <= threshold { left } else { right };
                        (r - p) * (r - p)
                    })
                    .sum();
                if err < best_err {
                    best_err = err;
                    best = Stump {
                        feature,
                        threshold,
                        left,
                        right,
                    };
                }
            }
        }
        best
    }
}

/// L2 gradient boosting over regression stumps.
#[derive(Clone, Debug, Default)]
pub struct GradientBoosting {
    stumps: Vec<Stump>,
    base: f64,
}

/// Gradient boosting's rounds.
const GB_ROUNDS: usize = 120;
/// Gradient boosting's shrinkage.
const GB_LEARNING_RATE: f64 = 0.3;

impl GradientBoosting {
    /// Creates an untrained booster.
    pub fn new() -> Self {
        GradientBoosting {
            stumps: Vec::new(),
            base: 0.0,
        }
    }

    fn raw(&self, x: &[f64]) -> f64 {
        self.base
            + self
                .stumps
                .iter()
                .map(|s| GB_LEARNING_RATE * s.predict(x))
                .sum::<f64>()
    }
}

impl Classifier for GradientBoosting {
    fn name(&self) -> &'static str {
        "GB"
    }

    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) {
        self.base = y.iter().sum::<f64>() / y.len().max(1) as f64;
        self.stumps.clear();
        let mut preds: Vec<f64> = vec![self.base; y.len()];
        for _ in 0..GB_ROUNDS {
            let residuals: Vec<f64> = y.iter().zip(&preds).map(|(t, p)| t - p).collect();
            let stump = Stump::fit(x, &residuals);
            for (p, row) in preds.iter_mut().zip(x) {
                *p += GB_LEARNING_RATE * stump.predict(row);
            }
            self.stumps.push(stump);
        }
    }

    fn score(&self, x: &[f64]) -> f64 {
        self.raw(x).clamp(0.0, 1.0)
    }
}

/// One node of a CART tree (index into the arena, or a leaf value).
#[derive(Clone, Debug)]
enum TreeNode {
    Leaf(f64),
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// A depth-bounded CART classification tree on bootstrapped data.
#[derive(Clone, Debug)]
struct Cart {
    nodes: Vec<TreeNode>,
}

impl Cart {
    fn fit(
        x: &[Vec<f64>],
        y: &[f64],
        idx: &[usize],
        max_depth: usize,
        rng: &mut MlRng,
    ) -> Cart {
        let mut nodes = Vec::new();
        Self::build(x, y, idx, max_depth, rng, &mut nodes);
        Cart { nodes }
    }

    fn build(
        x: &[Vec<f64>],
        y: &[f64],
        idx: &[usize],
        depth: usize,
        rng: &mut MlRng,
        nodes: &mut Vec<TreeNode>,
    ) -> usize {
        let mean = idx.iter().map(|i| y[*i]).sum::<f64>() / idx.len().max(1) as f64;
        let pure = idx.iter().all(|i| y[*i] > 0.5) || idx.iter().all(|i| y[*i] <= 0.5);
        if depth == 0 || idx.len() < 4 || pure {
            nodes.push(TreeNode::Leaf(mean));
            return nodes.len() - 1;
        }
        let d = x[0].len();
        // Random feature subset of size √d, random thresholds.
        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, gini)
        let tries = (d as f64).sqrt().ceil() as usize * 3;
        for _ in 0..tries {
            let feature = rng.gen_range(d);
            let pick = idx[rng.gen_range(idx.len())];
            let threshold = x[pick][feature];
            let (mut lp, mut lc, mut rp, mut rc) = (0.0, 0u32, 0.0, 0u32);
            for i in idx {
                if x[*i][feature] <= threshold {
                    lp += y[*i];
                    lc += 1;
                } else {
                    rp += y[*i];
                    rc += 1;
                }
            }
            if lc == 0 || rc == 0 {
                continue;
            }
            let gini_half = |p: f64, c: u32| {
                let q = p / c as f64;
                c as f64 * q * (1.0 - q)
            };
            let gini = gini_half(lp, lc) + gini_half(rp, rc);
            if best.map(|(_, _, g)| gini < g).unwrap_or(true) {
                best = Some((feature, threshold, gini));
            }
        }
        let Some((feature, threshold, _)) = best else {
            nodes.push(TreeNode::Leaf(mean));
            return nodes.len() - 1;
        };
        let left_idx: Vec<usize> = idx
            .iter()
            .copied()
            .filter(|i| x[*i][feature] <= threshold)
            .collect();
        let right_idx: Vec<usize> = idx
            .iter()
            .copied()
            .filter(|i| x[*i][feature] > threshold)
            .collect();
        let left = Self::build(x, y, &left_idx, depth - 1, rng, nodes);
        let right = Self::build(x, y, &right_idx, depth - 1, rng, nodes);
        nodes.push(TreeNode::Split {
            feature,
            threshold,
            left,
            right,
        });
        nodes.len() - 1
    }

    fn predict(&self, x: &[f64]) -> f64 {
        let mut at = self.nodes.len() - 1; // root is pushed last
        loop {
            match &self.nodes[at] {
                TreeNode::Leaf(v) => return *v,
                TreeNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    at = if x.get(*feature).copied().unwrap_or(0.0) <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }
}

/// A random forest: bootstrapped CART trees with random splits, averaged.
#[derive(Clone, Debug)]
pub struct RandomForest {
    trees: Vec<Cart>,
    seed: u64,
}

/// The forest's number of trees.
const RF_TREES: usize = 60;
/// The forest's maximum depth per tree.
const RF_MAX_DEPTH: usize = 6;

impl RandomForest {
    /// Creates an untrained forest.
    pub fn new(seed: u64) -> Self {
        RandomForest {
            trees: Vec::new(),
            seed,
        }
    }
}

impl Classifier for RandomForest {
    fn name(&self) -> &'static str {
        "RF"
    }

    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) {
        let mut rng = MlRng::new(self.seed);
        self.trees.clear();
        let n = x.len();
        for _ in 0..RF_TREES {
            let idx: Vec<usize> = (0..n).map(|_| rng.gen_range(n)).collect();
            self.trees.push(Cart::fit(x, y, &idx, RF_MAX_DEPTH, &mut rng));
        }
    }

    fn score(&self, x: &[f64]) -> f64 {
        if self.trees.is_empty() {
            return 0.0;
        }
        self.trees.iter().map(|t| t.predict(x)).sum::<f64>() / self.trees.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::assert_learns;
    use super::*;

    #[test]
    fn gradient_boosting_learns() {
        assert_learns(Box::new(GradientBoosting::new()));
    }

    #[test]
    fn random_forest_learns() {
        assert_learns(Box::new(RandomForest::new(1)));
    }

    #[test]
    fn stump_splits_cleanly() {
        let x = vec![vec![0.0], vec![1.0], vec![10.0], vec![11.0]];
        let r = vec![-1.0, -1.0, 1.0, 1.0];
        let s = Stump::fit(&x, &r);
        assert_eq!(s.feature, 0);
        assert!(s.left < 0.0 && s.right > 0.0);
        assert!(s.predict(&[0.5]) < 0.0);
        assert!(s.predict(&[10.5]) > 0.0);
    }

    #[test]
    fn boosting_fits_deterministically() {
        let x = vec![vec![0.0, 1.0], vec![1.0, 0.0], vec![5.0, 5.0], vec![6.0, 6.0]];
        let y = vec![0.0, 0.0, 1.0, 1.0];
        let mut a = GradientBoosting::new();
        let mut b = GradientBoosting::new();
        a.fit(&x, &y);
        b.fit(&x, &y);
        for row in &x {
            assert_eq!(a.score(row).to_bits(), b.score(row).to_bits());
        }
    }

    #[test]
    fn forest_is_deterministic_per_seed() {
        let x = vec![vec![0.0, 1.0], vec![1.0, 0.0], vec![5.0, 5.0], vec![6.0, 6.0]];
        let y = vec![0.0, 0.0, 1.0, 1.0];
        let mut a = RandomForest::new(9);
        let mut b = RandomForest::new(9);
        a.fit(&x, &y);
        b.fit(&x, &y);
        for row in &x {
            assert_eq!(a.score(row), b.score(row));
        }
    }

    #[test]
    fn untrained_forest_scores_zero() {
        assert_eq!(RandomForest::new(0).score(&[1.0]), 0.0);
    }
}
