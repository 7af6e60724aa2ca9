//! Neural baselines: a small feed-forward classifier ("DNN") and an
//! AutoEncoder whose reconstruction error flags anomalies.

use super::{Classifier, MlRng, Scaler};

/// A dense layer with tanh activation (linear when `linear = true`).
#[derive(Clone, Debug)]
struct Layer {
    w: Vec<Vec<f64>>, // [out][in]
    b: Vec<f64>,
    linear: bool,
}

impl Layer {
    fn new(input: usize, output: usize, linear: bool, rng: &mut MlRng) -> Layer {
        let scale = (2.0 / (input + output) as f64).sqrt();
        Layer {
            w: (0..output)
                .map(|_| (0..input).map(|_| rng.weight(scale)).collect())
                .collect(),
            b: vec![0.0; output],
            linear,
        }
    }

    fn forward(&self, x: &[f64]) -> Vec<f64> {
        self.w
            .iter()
            .zip(&self.b)
            .map(|(row, b)| {
                let z: f64 = row.iter().zip(x).map(|(w, v)| w * v).sum::<f64>() + b;
                if self.linear {
                    z
                } else {
                    z.tanh()
                }
            })
            .collect()
    }
}

/// A small multi-layer perceptron trained with backprop + SGD.
#[derive(Clone, Debug)]
struct Mlp {
    layers: Vec<Layer>,
}

impl Mlp {
    fn new(sizes: &[usize], rng: &mut MlRng) -> Mlp {
        let layers = sizes
            .windows(2)
            .enumerate()
            .map(|(i, w)| Layer::new(w[0], w[1], i == sizes.len() - 2, rng))
            .collect();
        Mlp { layers }
    }

    fn forward_all(&self, x: &[f64]) -> Vec<Vec<f64>> {
        let mut acts = vec![x.to_vec()];
        for layer in &self.layers {
            let next = layer.forward(acts.last().expect("nonempty"));
            acts.push(next);
        }
        acts
    }

    fn output(&self, x: &[f64]) -> Vec<f64> {
        self.forward_all(x).pop().expect("output layer")
    }

    /// One SGD step on squared error against `target`; returns the loss.
    fn step(&mut self, x: &[f64], target: &[f64], lr: f64) -> f64 {
        let acts = self.forward_all(x);
        let out = acts.last().expect("output");
        let mut delta: Vec<f64> = out.iter().zip(target).map(|(o, t)| o - t).collect();
        let loss: f64 = delta.iter().map(|d| d * d).sum();
        for li in (0..self.layers.len()).rev() {
            let input = &acts[li];
            let output = &acts[li + 1];
            // tanh'(z) expressed via the activation value.
            let dz: Vec<f64> = if self.layers[li].linear {
                delta.clone()
            } else {
                delta
                    .iter()
                    .zip(output)
                    .map(|(d, a)| d * (1.0 - a * a))
                    .collect()
            };
            // Backpropagate before mutating weights.
            let mut next_delta = vec![0.0; input.len()];
            for (j, row) in self.layers[li].w.iter().enumerate() {
                for (i, w) in row.iter().enumerate() {
                    next_delta[i] += w * dz[j];
                }
            }
            let layer = &mut self.layers[li];
            for (j, row) in layer.w.iter_mut().enumerate() {
                for (i, w) in row.iter_mut().enumerate() {
                    *w -= lr * dz[j] * input[i];
                }
                layer.b[j] -= lr * dz[j];
            }
            delta = next_delta;
        }
        loss
    }
}

/// A feed-forward classifier (28 → 32 → 16 → 1).
#[derive(Clone, Debug)]
pub struct DeepNet {
    net: Option<Mlp>,
    scaler: Scaler,
    seed: u64,
}

/// The DNN's training epochs over the dataset.
const DNN_EPOCHS: usize = 300;
/// The DNN's learning rate.
const DNN_LR: f64 = 0.01;

impl DeepNet {
    /// Creates an untrained network.
    pub fn new(seed: u64) -> Self {
        DeepNet {
            net: None,
            scaler: Scaler::default(),
            seed,
        }
    }
}

impl Classifier for DeepNet {
    fn name(&self) -> &'static str {
        "DNN"
    }

    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) {
        self.scaler = Scaler::fit(x);
        let rows: Vec<Vec<f64>> = x.iter().map(|r| self.scaler.transform(r)).collect();
        let d = rows.first().map(|r| r.len()).unwrap_or(0);
        let mut rng = MlRng::new(self.seed);
        let mut net = Mlp::new(&[d, 32, 16, 1], &mut rng);
        for _ in 0..DNN_EPOCHS {
            for (row, label) in rows.iter().zip(y) {
                net.step(row, &[*label], DNN_LR);
            }
        }
        self.net = Some(net);
    }

    fn score(&self, x: &[f64]) -> f64 {
        let Some(net) = &self.net else {
            return 0.0;
        };
        let row = self.scaler.transform(x);
        net.output(&row)[0].clamp(0.0, 1.0)
    }
}

/// An AutoEncoder (28 → 8 → 28): trained to reconstruct *normal* windows;
/// a reconstruction error above the learned threshold means anomaly.
#[derive(Clone, Debug)]
pub struct AutoEncoder {
    net: Option<Mlp>,
    scaler: Scaler,
    threshold: f64,
    seed: u64,
}

/// The autoencoder's training epochs.
const AE_EPOCHS: usize = 300;
/// The autoencoder's learning rate.
const AE_LR: f64 = 0.005;
/// The autoencoder's bottleneck width.
const AE_BOTTLENECK: usize = 8;

impl AutoEncoder {
    /// Creates an untrained autoencoder.
    pub fn new(seed: u64) -> Self {
        AutoEncoder {
            net: None,
            scaler: Scaler::default(),
            threshold: f64::INFINITY,
            seed,
        }
    }

    fn reconstruction_error(&self, row: &[f64]) -> f64 {
        let Some(net) = &self.net else {
            return 0.0;
        };
        let out = net.output(row);
        out.iter()
            .zip(row)
            .map(|(o, v)| (o - v) * (o - v))
            .sum::<f64>()
            / row.len().max(1) as f64
    }
}

impl Classifier for AutoEncoder {
    fn name(&self) -> &'static str {
        "AE"
    }

    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) {
        // Unsupervised: learn the normal manifold only.
        let normals: Vec<Vec<f64>> = x
            .iter()
            .zip(y)
            .filter(|(_, l)| **l < 0.5)
            .map(|(r, _)| r.clone())
            .collect();
        self.scaler = Scaler::fit(&normals);
        let rows: Vec<Vec<f64>> = normals.iter().map(|r| self.scaler.transform(r)).collect();
        let d = rows.first().map(|r| r.len()).unwrap_or(0);
        let mut rng = MlRng::new(self.seed);
        let mut net = Mlp::new(&[d, AE_BOTTLENECK, d], &mut rng);
        for _ in 0..AE_EPOCHS {
            for row in &rows {
                net.step(row, row, AE_LR);
            }
        }
        self.net = Some(net);
        // Threshold: mean + 3σ of training reconstruction error.
        let errs: Vec<f64> = rows.iter().map(|r| self.reconstruction_error(r)).collect();
        let mean = errs.iter().sum::<f64>() / errs.len().max(1) as f64;
        let var = errs.iter().map(|e| (e - mean) * (e - mean)).sum::<f64>()
            / errs.len().max(1) as f64;
        self.threshold = mean + 3.0 * var.sqrt() + 1e-9;
    }

    fn score(&self, x: &[f64]) -> f64 {
        let row = self.scaler.transform(x);
        let err = self.reconstruction_error(&row);
        // 0.5 exactly at the threshold, saturating above.
        (err / (2.0 * self.threshold)).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{accuracy, assert_learns, dataset};
    use super::*;

    #[test]
    fn dnn_learns() {
        assert_learns(Box::new(DeepNet::new(3)));
    }

    #[test]
    fn autoencoder_flags_anomalies() {
        let (x, y) = dataset();
        let mut ae = AutoEncoder::new(5);
        ae.fit(&x, &y);
        let acc = accuracy(&ae, &x, &y);
        assert!(acc >= 0.75, "AE accuracy {acc}");
    }

    #[test]
    fn mlp_fits_xor() {
        let x = [vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0]];
        let y = [0.0, 1.0, 1.0, 0.0];
        let mut rng = MlRng::new(11);
        let mut net = Mlp::new(&[2, 8, 1], &mut rng);
        for _ in 0..4000 {
            for (row, t) in x.iter().zip(&y) {
                net.step(row, &[*t], 0.1);
            }
        }
        for (row, t) in x.iter().zip(&y) {
            let out = net.output(row)[0];
            assert!((out - t).abs() < 0.3, "xor({row:?}) = {out}");
        }
    }

    #[test]
    fn untrained_nets_are_safe() {
        assert_eq!(DeepNet::new(0).score(&[1.0, 2.0]), 0.0);
        let ae = AutoEncoder::new(0);
        assert!(ae.score(&[1.0]) <= 1.0);
    }
}
