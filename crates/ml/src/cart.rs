//! A CART-style decision tree (Gini impurity), one of the paper's
//! model-selection baselines.

use crate::data::Dataset;
use crate::{Learner, Model};

/// The CART learner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cart {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum rows required to attempt a split.
    pub min_split: usize,
}

impl Default for Cart {
    fn default() -> Self {
        Cart { max_depth: 8, min_split: 4 }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        /// Positive-class fraction at the leaf.
        p: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

/// A trained CART tree.
#[derive(Debug, Clone)]
pub struct CartModel {
    root: Node,
}

impl Model for CartModel {
    fn score(&self, x: &[f64]) -> f64 {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { p } => return *p,
                Node::Split { feature, threshold, left, right } => {
                    node = if x[*feature] <= *threshold { left } else { right };
                }
            }
        }
    }
}

fn gini(pos: f64, total: f64) -> f64 {
    if total <= 0.0 {
        return 0.0;
    }
    let p = pos / total;
    2.0 * p * (1.0 - p)
}

fn grow(data: &Dataset, indices: &[usize], depth: usize, cfg: &Cart) -> Node {
    let total = indices.len() as f64;
    let pos = indices.iter().filter(|&&i| data.label(i)).count() as f64;
    let leaf = Node::Leaf { p: if total > 0.0 { pos / total } else { 0.5 } };
    if depth >= cfg.max_depth || indices.len() < cfg.min_split || pos == 0.0 || pos == total {
        return leaf;
    }

    let parent_impurity = gini(pos, total);
    let mut best: Option<(f64, usize, f64)> = None;
    let mut order = indices.to_vec();
    for j in 0..data.dim() {
        order.sort_unstable_by(|&a, &b| {
            data.row(a)[j].partial_cmp(&data.row(b)[j]).expect("finite features")
        });
        let mut pos_left = 0.0;
        for k in 0..order.len() - 1 {
            if data.label(order[k]) {
                pos_left += 1.0;
            }
            if data.row(order[k])[j] == data.row(order[k + 1])[j] {
                continue;
            }
            let n_left = (k + 1) as f64;
            let n_right = total - n_left;
            let pos_right = pos - pos_left;
            let impurity = (n_left / total) * gini(pos_left, n_left)
                + (n_right / total) * gini(pos_right, n_right);
            let gain = parent_impurity - impurity;
            let threshold = (data.row(order[k])[j] + data.row(order[k + 1])[j]) / 2.0;
            if best.is_none_or(|(g, _, _)| gain > g) {
                best = Some((gain, j, threshold));
            }
        }
    }

    match best {
        // Zero-gain splits are allowed on impure nodes: XOR-like problems
        // have no first split with positive Gini gain, yet the children
        // become separable (depth bounds the recursion).
        Some((gain, feature, threshold)) if gain > -1e-12 => {
            let (li, ri): (Vec<usize>, Vec<usize>) =
                indices.iter().partition(|&&i| data.row(i)[feature] <= threshold);
            if li.is_empty() || ri.is_empty() {
                return leaf;
            }
            Node::Split {
                feature,
                threshold,
                left: Box::new(grow(data, &li, depth + 1, cfg)),
                right: Box::new(grow(data, &ri, depth + 1, cfg)),
            }
        }
        _ => leaf,
    }
}

impl Learner for Cart {
    fn fit(&self, data: &Dataset) -> Box<dyn Model> {
        let indices: Vec<usize> = (0..data.len()).collect();
        Box::new(CartModel { root: grow(data, &indices, 0, self) })
    }

    fn name(&self) -> &'static str {
        "CART"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_axis_aligned_split() {
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![f64::from(i)]).collect();
        let labels: Vec<bool> = (0..40).map(|i| i >= 20).collect();
        let data = Dataset::new(rows, labels).unwrap();
        let model = Cart::default().fit(&data);
        assert!(model.score(&[30.0]) > 0.9);
        assert!(model.score(&[5.0]) < 0.1);
    }

    #[test]
    fn learns_xor_with_depth_two() {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for a in 0..2 {
            for b in 0..2 {
                for _ in 0..10 {
                    rows.push(vec![f64::from(a), f64::from(b)]);
                    labels.push((a ^ b) == 1);
                }
            }
        }
        let data = Dataset::new(rows, labels).unwrap();
        let model = Cart { max_depth: 2, min_split: 2 }.fit(&data);
        assert!(model.score(&[1.0, 0.0]) > 0.9);
        assert!(model.score(&[1.0, 1.0]) < 0.1);
    }

    #[test]
    fn depth_zero_gives_prior() {
        let rows = vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]];
        let labels = vec![true, true, true, false];
        let data = Dataset::new(rows, labels).unwrap();
        let model = Cart { max_depth: 0, min_split: 2 }.fit(&data);
        assert!((model.score(&[0.0]) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn pure_nodes_stop_splitting() {
        let rows = vec![vec![0.0], vec![1.0]];
        let labels = vec![true, true];
        let data = Dataset::new(rows, labels).unwrap();
        let model = Cart::default().fit(&data);
        assert_eq!(model.score(&[0.5]), 1.0);
    }
}
