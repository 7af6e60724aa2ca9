//! The Dataset component of Figure 9: a labelled collection of traffic
//! windows with a deterministic train/test split.

use crate::features::TrafficWindow;

/// A labelled dataset of traffic windows (`0.0` normal / `1.0` anomalous).
#[derive(Clone, Debug, Default)]
pub struct Dataset {
    /// The windows.
    pub windows: Vec<TrafficWindow>,
    /// Parallel labels.
    pub labels: Vec<f64>,
}

impl Dataset {
    /// Creates an empty dataset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a labelled window.
    pub fn push(&mut self, window: TrafficWindow, label: f64) {
        self.windows.push(window);
        self.labels.push(label);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// The normal (label 0) windows.
    pub fn normals(&self) -> Vec<TrafficWindow> {
        self.windows
            .iter()
            .zip(&self.labels)
            .filter(|(_, l)| **l < 0.5)
            .map(|(w, _)| *w)
            .collect()
    }

    /// Flat feature matrix for the ML baselines.
    pub fn feature_matrix(&self) -> Vec<Vec<f64>> {
        self.windows.iter().map(|w| w.feature_vector()).collect()
    }

    /// Deterministic split: every `k`-th row goes to the test set.
    ///
    /// # Panics
    ///
    /// Panics when `k == 0`.
    pub fn split_every_kth(&self, k: usize) -> (Dataset, Dataset) {
        assert!(k > 0, "k must be positive");
        let mut train = Dataset::new();
        let mut test = Dataset::new();
        for (i, (w, l)) in self.windows.iter().zip(&self.labels).enumerate() {
            if (i + 1) % k == 0 {
                test.push(*w, *l);
            } else {
                train.push(*w, *l);
            }
        }
        (train, test)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::NUM_TYPES;

    fn sample() -> Dataset {
        let mut ds = Dataset::new();
        for i in 0..10u64 {
            let mut w = TrafficWindow::empty(10.0);
            w.counts[4] = 100 + i;
            w.counts[12] = 500;
            w.reconnects = i % 3;
            ds.push(w, if i % 5 == 0 { 1.0 } else { 0.0 });
        }
        ds
    }

    #[test]
    fn split_every_kth_partitions() {
        let ds = sample();
        let (train, test) = ds.split_every_kth(3);
        assert_eq!(train.len() + test.len(), ds.len());
        assert_eq!(test.len(), 3);
    }

    #[test]
    fn normals_filters_labels() {
        let ds = sample();
        assert_eq!(ds.normals().len(), 8);
    }

    #[test]
    fn feature_matrix_shape() {
        let ds = sample();
        let x = ds.feature_matrix();
        assert_eq!(x.len(), 10);
        assert!(x.iter().all(|r| r.len() == NUM_TYPES + 2));
    }
}
