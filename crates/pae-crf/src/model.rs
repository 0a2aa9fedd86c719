//! CRF parameter storage and scoring.

use crate::data::{FeatId, FeatureSeq, LabelId};
use crate::inference;

/// A trained linear-chain CRF.
///
/// Parameters are stored as one flat vector (see [`CrfModel::params`])
/// so the optimizers can treat the model as a point in R^n:
///
/// ```text
/// [ unigram (n_features × n_labels) | transition (n_labels × n_labels)
///   | start (n_labels) | end (n_labels) ]
/// ```
#[derive(Debug, Clone)]
pub struct CrfModel {
    /// Number of labels.
    pub n_labels: usize,
    /// Number of (binary) observation features.
    pub n_features: usize,
    /// Flat parameter vector, layout documented on the struct.
    pub params: Vec<f64>,
}

/// A borrowed view of CRF parameters: the same scoring operations as
/// [`CrfModel`], but over a parameter slice the caller owns.
///
/// This is what lets the optimizer's objective evaluate gradients
/// directly on its iterate `x` — no per-call `to_vec` into a fresh
/// model. `CrfModel` methods delegate here via [`CrfModel::view`].
#[derive(Debug, Clone, Copy)]
pub struct ParamsView<'a> {
    /// Number of labels.
    pub n_labels: usize,
    /// Number of (binary) observation features.
    pub n_features: usize,
    /// Flat parameter slice (same layout as [`CrfModel::params`]).
    pub params: &'a [f64],
}

impl<'a> ParamsView<'a> {
    /// Wraps a raw parameter slice. `params.len()` must equal
    /// [`CrfModel::param_len`] for the given dimensions.
    pub fn new(params: &'a [f64], n_features: usize, n_labels: usize) -> Self {
        debug_assert_eq!(params.len(), CrfModel::param_len(n_features, n_labels));
        ParamsView {
            n_labels,
            n_features,
            params,
        }
    }

    /// Weight of `(feature, label)`.
    #[inline]
    pub fn unigram(&self, feat: FeatId, label: LabelId) -> f64 {
        self.params[feat as usize * self.n_labels + label]
    }

    /// Transition weight `prev → cur`.
    #[inline]
    pub fn transition(&self, prev: LabelId, cur: LabelId) -> f64 {
        self.params[self.trans_offset() + prev * self.n_labels + cur]
    }

    /// Start weight for `label` (virtual BOS transition).
    #[inline]
    pub fn start(&self, label: LabelId) -> f64 {
        self.params[self.start_offset() + label]
    }

    /// End weight for `label` (virtual EOS transition).
    #[inline]
    pub fn end(&self, label: LabelId) -> f64 {
        self.params[self.end_offset() + label]
    }

    /// Offset of the transition block.
    #[inline]
    pub fn trans_offset(&self) -> usize {
        self.n_features * self.n_labels
    }

    /// Offset of the start block.
    #[inline]
    pub fn start_offset(&self) -> usize {
        self.trans_offset() + self.n_labels * self.n_labels
    }

    /// Offset of the end block.
    #[inline]
    pub fn end_offset(&self) -> usize {
        self.start_offset() + self.n_labels
    }

    /// Emission scores for one position: `score[l] = Σ_f w[f, l]`.
    pub fn emission_scores(&self, feats: &[FeatId], out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.n_labels);
        out.fill(0.0);
        for &f in feats {
            let base = f as usize * self.n_labels;
            for (l, o) in out.iter_mut().enumerate() {
                *o += self.params[base + l];
            }
        }
    }

    /// Unnormalized log-score of a full labelling (any feature layout).
    pub fn sequence_score<S: FeatureSeq + ?Sized>(&self, features: &S, labels: &[LabelId]) -> f64 {
        debug_assert_eq!(features.n_positions(), labels.len());
        if labels.is_empty() {
            return 0.0;
        }
        let mut score = self.start(labels[0]) + self.end(labels[labels.len() - 1]);
        for (t, &l) in labels.iter().enumerate() {
            for &f in features.feats(t) {
                score += self.unigram(f, l);
            }
            if t > 0 {
                score += self.transition(labels[t - 1], l);
            }
        }
        score
    }
}

impl CrfModel {
    /// Zero-initialized model.
    pub fn new(n_features: usize, n_labels: usize) -> Self {
        CrfModel {
            n_labels,
            n_features,
            params: vec![0.0; Self::param_len(n_features, n_labels)],
        }
    }

    /// Total parameter count for the given dimensions.
    pub fn param_len(n_features: usize, n_labels: usize) -> usize {
        n_features * n_labels + n_labels * n_labels + 2 * n_labels
    }

    /// Borrowed scoring view over this model's parameters.
    #[inline]
    pub fn view(&self) -> ParamsView<'_> {
        ParamsView {
            n_labels: self.n_labels,
            n_features: self.n_features,
            params: &self.params,
        }
    }

    /// Weight of `(feature, label)`.
    #[inline]
    pub fn unigram(&self, feat: FeatId, label: LabelId) -> f64 {
        self.view().unigram(feat, label)
    }

    /// Transition weight `prev → cur`.
    #[inline]
    pub fn transition(&self, prev: LabelId, cur: LabelId) -> f64 {
        self.view().transition(prev, cur)
    }

    /// Start weight for `label` (virtual BOS transition).
    #[inline]
    pub fn start(&self, label: LabelId) -> f64 {
        self.view().start(label)
    }

    /// End weight for `label` (virtual EOS transition).
    #[inline]
    pub fn end(&self, label: LabelId) -> f64 {
        self.view().end(label)
    }

    /// Offset of the transition block in [`CrfModel::params`].
    #[inline]
    pub fn trans_offset(&self) -> usize {
        self.view().trans_offset()
    }

    /// Offset of the start block.
    #[inline]
    pub fn start_offset(&self) -> usize {
        self.view().start_offset()
    }

    /// Offset of the end block.
    #[inline]
    pub fn end_offset(&self) -> usize {
        self.view().end_offset()
    }

    /// Emission scores for one position: `score[l] = Σ_f w[f, l]`.
    pub fn emission_scores(&self, feats: &[FeatId], out: &mut [f64]) {
        self.view().emission_scores(feats, out)
    }

    /// Unnormalized log-score of a full labelling.
    pub fn sequence_score(&self, features: &[Vec<FeatId>], labels: &[LabelId]) -> f64 {
        self.view().sequence_score(features, labels)
    }

    /// Most likely labelling (Viterbi decode).
    pub fn viterbi(&self, features: &[Vec<FeatId>]) -> Vec<LabelId> {
        inference::viterbi(self, features)
    }

    /// Viterbi decode plus, when `want` accepts the labels, the
    /// posterior marginal of each decoded label (see
    /// [`inference::viterbi_with_confidence`]).
    pub fn viterbi_with_confidence(
        &self,
        features: &[Vec<FeatId>],
        want: impl FnOnce(&[LabelId]) -> bool,
    ) -> (Vec<LabelId>, Vec<f64>) {
        inference::viterbi_with_confidence(self, features, want)
    }

    /// Log-partition function of the sequence.
    pub fn log_partition(&self, features: &[Vec<FeatId>]) -> f64 {
        inference::forward(self, features).log_z
    }

    /// Number of parameters with magnitude above `eps` (sparsity probe;
    /// L1 training should drive many to exactly zero).
    pub fn active_params(&self, eps: f64) -> usize {
        self.params.iter().filter(|p| p.abs() > eps).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{CsrInstances, Instance};

    #[test]
    fn layout_offsets_are_disjoint_and_total() {
        let m = CrfModel::new(3, 2);
        assert_eq!(m.trans_offset(), 6);
        assert_eq!(m.start_offset(), 10);
        assert_eq!(m.end_offset(), 12);
        assert_eq!(m.params.len(), 14);
    }

    #[test]
    fn sequence_score_sums_parts() {
        let mut m = CrfModel::new(2, 2);
        // unigram(f=0, l=1) = 1.0 ; trans(1→0) = 0.5 ; start(1)=0.25; end(0)=0.125
        m.params[1] = 1.0; // unigram(f=0, l=1)
        let t = m.trans_offset();
        m.params[t + 2] = 0.5; // trans(1 -> 0)
        let s = m.start_offset();
        m.params[s + 1] = 0.25;
        let e = m.end_offset();
        m.params[e] = 0.125;

        let feats = vec![vec![0u32], vec![]];
        let score = m.sequence_score(&feats, &[1, 0]);
        assert!((score - (1.0 + 0.5 + 0.25 + 0.125)).abs() < 1e-12);
    }

    #[test]
    fn view_scores_match_model_on_csr() {
        let mut m = CrfModel::new(2, 2);
        for (i, p) in m.params.iter_mut().enumerate() {
            *p = (i as f64 + 1.0) * 0.17;
        }
        let inst = Instance {
            features: vec![vec![0u32, 1], vec![1]],
            labels: vec![1, 0],
        };
        let csr = CsrInstances::pack(std::slice::from_ref(&inst));
        let nested = m.sequence_score(&inst.features, &inst.labels);
        let packed = m.view().sequence_score(&csr.seq(0), &inst.labels);
        assert_eq!(nested.to_bits(), packed.to_bits());
    }

    #[test]
    fn empty_sequence_scores_zero() {
        let m = CrfModel::new(1, 2);
        assert_eq!(m.sequence_score(&[], &[]), 0.0);
    }

    #[test]
    fn emission_scores_accumulate() {
        let mut m = CrfModel::new(2, 2);
        m.params[0] = 1.0; // (f0, l0)
        m.params[3] = 2.0; // (f1, l1)
        let mut out = vec![0.0; 2];
        m.emission_scores(&[0, 1], &mut out);
        assert_eq!(out, vec![1.0, 2.0]);
    }

    #[test]
    fn active_params_counts_nonzero() {
        let mut m = CrfModel::new(2, 2);
        assert_eq!(m.active_params(1e-9), 0);
        m.params[5] = 0.3;
        assert_eq!(m.active_params(1e-9), 1);
    }
}
