//! Log-space forward/backward, marginals, and Viterbi decoding.

// Dynamic-programming kernels read clearest with explicit indices.
#![allow(clippy::needless_range_loop)]

use crate::data::{FeatureSeq, LabelId};
use crate::model::{CrfModel, ParamsView};
use crate::numeric::log_sum_exp;

/// Forward pass result.
#[derive(Debug, Clone)]
pub struct Forward {
    /// `alpha[t][l]` = log sum of scores of prefixes ending at `t` with
    /// label `l` (includes the start weight and all emissions up to `t`).
    pub alpha: Vec<Vec<f64>>,
    /// Per-position emission scores (cached for reuse by backward).
    pub emissions: Vec<Vec<f64>>,
    /// Log-partition function `log Z` (includes end weights).
    pub log_z: f64,
}

/// Runs the forward algorithm in log space.
pub fn forward<S: FeatureSeq + ?Sized>(model: &CrfModel, features: &S) -> Forward {
    let view = model.view();
    let n = features.n_positions();
    let l = model.n_labels;
    let mut emissions = vec![vec![0.0; l]; n];
    for (t, em) in emissions.iter_mut().enumerate() {
        view.emission_scores(features.feats(t), em);
    }
    let mut alpha = vec![vec![f64::NEG_INFINITY; l]; n];
    if n == 0 {
        return Forward {
            alpha,
            emissions,
            log_z: 0.0,
        };
    }
    for y in 0..l {
        alpha[0][y] = view.start(y) + emissions[0][y];
    }
    let mut scratch = vec![0.0; l];
    for t in 1..n {
        for y in 0..l {
            for (p, s) in scratch.iter_mut().enumerate() {
                *s = alpha[t - 1][p] + view.transition(p, y);
            }
            alpha[t][y] = log_sum_exp(&scratch) + emissions[t][y];
        }
    }
    for (y, s) in scratch.iter_mut().enumerate() {
        *s = alpha[n - 1][y] + view.end(y);
    }
    let log_z = log_sum_exp(&scratch);
    Forward {
        alpha,
        emissions,
        log_z,
    }
}

/// Backward pass: `beta[t][l]` = log sum of scores of suffixes starting
/// after `t` given label `l` at `t` (includes the end weight, excludes
/// emission at `t`).
pub fn backward(model: &CrfModel, emissions: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let view = model.view();
    let n = emissions.len();
    let l = model.n_labels;
    let mut beta = vec![vec![f64::NEG_INFINITY; l]; n];
    if n == 0 {
        return beta;
    }
    for y in 0..l {
        beta[n - 1][y] = view.end(y);
    }
    let mut scratch = vec![0.0; l];
    for t in (0..n - 1).rev() {
        for y in 0..l {
            for (q, s) in scratch.iter_mut().enumerate() {
                *s = view.transition(y, q) + emissions[t + 1][q] + beta[t + 1][q];
            }
            beta[t][y] = log_sum_exp(&scratch);
        }
    }
    beta
}

/// Posterior marginals over the sequence.
#[derive(Debug, Clone)]
pub struct Marginals {
    /// `node[t][l]` = P(y_t = l | x).
    pub node: Vec<Vec<f64>>,
    /// `edge[t][p][q]` = P(y_{t-1} = p, y_t = q | x), for t in `1..n`
    /// stored at index `t - 1`.
    pub edge: Vec<Vec<Vec<f64>>>,
    /// Log-partition function.
    pub log_z: f64,
}

/// Computes node and edge marginals via forward-backward.
pub fn marginals<S: FeatureSeq + ?Sized>(model: &CrfModel, features: &S) -> Marginals {
    let view = model.view();
    let fwd = forward(model, features);
    let beta = backward(model, &fwd.emissions);
    let n = features.n_positions();
    let l = model.n_labels;
    let mut node = vec![vec![0.0; l]; n];
    for t in 0..n {
        for y in 0..l {
            node[t][y] = (fwd.alpha[t][y] + beta[t][y] - fwd.log_z).exp();
        }
    }
    let mut edge = vec![vec![vec![0.0; l]; l]; n.saturating_sub(1)];
    for t in 1..n {
        for p in 0..l {
            for q in 0..l {
                let s =
                    fwd.alpha[t - 1][p] + view.transition(p, q) + fwd.emissions[t][q] + beta[t][q]
                        - fwd.log_z;
                edge[t - 1][p][q] = s.exp();
            }
        }
    }
    Marginals {
        node,
        edge,
        log_z: fwd.log_z,
    }
}

/// Reusable forward-backward workspace: every matrix the nested
/// [`marginals`] allocates per call, flattened and retained.
///
/// Layout (for a sequence of `n` positions and `l` labels):
/// `node[t*l + y]`, `edge[(t-1)*l*l + p*l + q]`, row-major, valid only
/// for the window written by the latest [`marginals_into`] call.
/// Buffers grow monotonically and are never shrunk; stale bytes beyond
/// the current window are garbage by design — callers must index only
/// within the window of the sequence they just processed.
#[derive(Debug, Clone, Default)]
pub struct MargScratch {
    emissions: Vec<f64>,
    alpha: Vec<f64>,
    beta: Vec<f64>,
    tmp: Vec<f64>,
    /// `P(y_t = y | x)` at `[t*l + y]`.
    pub node: Vec<f64>,
    /// `P(y_{t-1} = p, y_t = q | x)` at `[(t-1)*l*l + p*l + q]`.
    pub edge: Vec<f64>,
    /// Log-partition function of the latest sequence.
    pub log_z: f64,
}

/// Grows `v` to at least `n` elements (never shrinks).
fn ensure(v: &mut Vec<f64>, n: usize) {
    if v.len() < n {
        v.resize(n, 0.0);
    }
}

/// Emission scores of every position into `em[t*l + y]`; `em` must
/// hold at least `n·l` elements.
fn emissions_into<S: FeatureSeq + ?Sized>(view: ParamsView<'_>, features: &S, em: &mut [f64]) {
    let l = view.n_labels;
    for t in 0..features.n_positions() {
        view.emission_scores(features.feats(t), &mut em[t * l..(t + 1) * l]);
    }
}

/// Forward pass into caller-provided buffers, returning `log Z`. The
/// flat-layout half of [`marginals_into`], exposed separately so a
/// line search can compute objective *values* (which need only `log Z`)
/// while caching `em`/`alpha` for a later [`MargScratch::finish`] at
/// the accepted point. `em` and `alpha` must hold at least `n·l`
/// elements, `tmp` at least `l`; arithmetic is bitwise-identical to
/// the forward section of the nested [`forward`].
pub fn forward_into<S: FeatureSeq + ?Sized>(
    view: ParamsView<'_>,
    features: &S,
    em: &mut [f64],
    alpha: &mut [f64],
    tmp: &mut [f64],
) -> f64 {
    emissions_into(view, features, em);
    alpha_into(view, features.n_positions(), em, alpha, tmp)
}

/// The forward recursion of [`forward_into`] over emissions already in
/// `em`, returning `log Z`.
fn alpha_into(
    view: ParamsView<'_>,
    n: usize,
    em: &[f64],
    alpha: &mut [f64],
    tmp: &mut [f64],
) -> f64 {
    let l = view.n_labels;
    if n == 0 {
        return 0.0;
    }
    let em = &em[..n * l];
    let alpha = &mut alpha[..n * l];
    let tmp = &mut tmp[..l];
    for y in 0..l {
        alpha[y] = view.start(y) + em[y];
    }
    for t in 1..n {
        for y in 0..l {
            for (p, s) in tmp.iter_mut().enumerate() {
                *s = alpha[(t - 1) * l + p] + view.transition(p, y);
            }
            alpha[t * l + y] = log_sum_exp(tmp) + em[t * l + y];
        }
    }
    for (y, s) in tmp.iter_mut().enumerate() {
        *s = alpha[(n - 1) * l + y] + view.end(y);
    }
    log_sum_exp(tmp)
}

impl MargScratch {
    /// Backward pass + node/edge marginals for a sequence of `n`
    /// positions whose forward quantities (`em`, `alpha`, `log_z`)
    /// were already computed by [`forward_into`] — against the same
    /// `view`, or the marginals are garbage. Fills `node`/`edge` and
    /// sets `log_z`; bitwise-identical to the backward/marginal
    /// section of [`marginals_into`].
    pub fn finish(
        &mut self,
        view: ParamsView<'_>,
        n: usize,
        em: &[f64],
        alpha: &[f64],
        log_z: f64,
    ) {
        let l = view.n_labels;
        ensure(&mut self.beta, n * l);
        ensure(&mut self.tmp, l);
        ensure(&mut self.node, n * l);
        ensure(&mut self.edge, n.saturating_sub(1) * l * l);
        self.log_z = log_z;
        if n == 0 {
            return;
        }
        let em = &em[..n * l];
        let alpha = &alpha[..n * l];
        backward_into(view, n, em, &mut self.beta, &mut self.tmp);
        let beta = &self.beta[..n * l];
        let node = &mut self.node[..n * l];
        for t in 0..n {
            for y in 0..l {
                node[t * l + y] = (alpha[t * l + y] + beta[t * l + y] - log_z).exp();
            }
        }
        let edge = &mut self.edge[..n.saturating_sub(1) * l * l];
        for t in 1..n {
            for p in 0..l {
                for q in 0..l {
                    let s = alpha[(t - 1) * l + p]
                        + view.transition(p, q)
                        + em[t * l + q]
                        + beta[t * l + q]
                        - log_z;
                    edge[(t - 1) * l * l + p * l + q] = s.exp();
                }
            }
        }
    }
}

/// The backward recursion in the flat layout: `beta[t*l + y]` as in the
/// nested [`backward`], bitwise-identical. `beta` must hold at least
/// `n·l` elements, `tmp` at least `l`.
fn backward_into(view: ParamsView<'_>, n: usize, em: &[f64], beta: &mut [f64], tmp: &mut [f64]) {
    let l = view.n_labels;
    if n == 0 {
        return;
    }
    let tmp = &mut tmp[..l];
    let beta = &mut beta[..n * l];
    for y in 0..l {
        beta[(n - 1) * l + y] = view.end(y);
    }
    for t in (0..n - 1).rev() {
        for y in 0..l {
            for (q, s) in tmp.iter_mut().enumerate() {
                *s = view.transition(y, q) + em[(t + 1) * l + q] + beta[(t + 1) * l + q];
            }
            beta[t * l + y] = log_sum_exp(tmp);
        }
    }
}

/// Forward-backward into a reusable [`MargScratch`] — the allocation-free
/// twin of [`marginals`], operating on any feature layout and a borrowed
/// parameter view. Bitwise-identical arithmetic: same loop orders, same
/// `log_sum_exp` reductions. Composed from [`forward_into`] +
/// [`MargScratch::finish`], which callers may also drive separately to
/// defer the backward/marginal work.
pub fn marginals_into<S: FeatureSeq + ?Sized>(
    view: ParamsView<'_>,
    features: &S,
    scratch: &mut MargScratch,
) {
    let n = features.n_positions();
    let l = view.n_labels;
    ensure(&mut scratch.emissions, n * l);
    ensure(&mut scratch.alpha, n * l);
    ensure(&mut scratch.tmp, l);
    // Move the forward buffers out so `finish` can borrow them
    // immutably alongside `&mut self` (they swap back below).
    let mut em = std::mem::take(&mut scratch.emissions);
    let mut alpha = std::mem::take(&mut scratch.alpha);
    let log_z = forward_into(view, features, &mut em, &mut alpha, &mut scratch.tmp);
    scratch.finish(view, n, &em, &alpha, log_z);
    scratch.emissions = em;
    scratch.alpha = alpha;
}

/// Viterbi decoding plus, when `want` accepts the decoded labels,
/// per-token posterior confidence: the forward–backward marginal
/// `P(y_t = ŷ_t | x)` of the decoded label at each position `t`.
///
/// The emissions are computed once, into a flat buffer, and shared by
/// Viterbi and forward–backward. Forward–backward runs only when
/// `want(&labels)` returns true; otherwise the confidence vector is
/// empty. Callers that read confidence only for decoded spans pass a
/// predicate that asks whether the labels contain one, and so skip the
/// marginals of every sentence that decodes to nothing.
///
/// The labels are exactly [`viterbi`]'s output, whatever `want` says;
/// the confidences are a read-only overlay, bitwise-identical to
/// [`marginals`]`(..).node[t][ŷ_t]`. A confidence near 1 means the
/// whole posterior mass agrees with the Viterbi path at that token;
/// values near `1/n_labels` flag tokens the model was guessing on.
pub fn viterbi_with_confidence<S: FeatureSeq + ?Sized>(
    model: &CrfModel,
    features: &S,
    want: impl FnOnce(&[LabelId]) -> bool,
) -> (Vec<LabelId>, Vec<f64>) {
    let view = model.view();
    let n = features.n_positions();
    let l = model.n_labels;
    let mut em = vec![0.0; n * l];
    emissions_into(view, features, &mut em);
    let labels = viterbi_from_emissions(view, n, &em);
    if !want(&labels) {
        return (labels, Vec::new());
    }
    let mut alpha = vec![0.0; n * l];
    let mut beta = vec![0.0; n * l];
    let mut tmp = vec![0.0; l];
    let log_z = alpha_into(view, n, &em, &mut alpha, &mut tmp);
    backward_into(view, n, &em, &mut beta, &mut tmp);
    let confidence = labels
        .iter()
        .enumerate()
        .map(|(t, &y)| (alpha[t * l + y] + beta[t * l + y] - log_z).exp())
        .collect();
    (labels, confidence)
}

/// Viterbi decoding: most probable label sequence.
pub fn viterbi<S: FeatureSeq + ?Sized>(model: &CrfModel, features: &S) -> Vec<LabelId> {
    let view = model.view();
    let n = features.n_positions();
    let mut em = vec![0.0; n * model.n_labels];
    emissions_into(view, features, &mut em);
    viterbi_from_emissions(view, n, &em)
}

/// Viterbi over emissions already in `em[t*l + y]`.
fn viterbi_from_emissions(view: ParamsView<'_>, n: usize, em: &[f64]) -> Vec<LabelId> {
    let l = view.n_labels;
    if n == 0 {
        return Vec::new();
    }
    let mut delta = vec![f64::NEG_INFINITY; n * l];
    let mut back = vec![0usize; n * l];
    for y in 0..l {
        delta[y] = view.start(y) + em[y];
    }
    for t in 1..n {
        for y in 0..l {
            let mut best = f64::NEG_INFINITY;
            let mut arg = 0;
            for p in 0..l {
                let s = delta[(t - 1) * l + p] + view.transition(p, y);
                if s > best {
                    best = s;
                    arg = p;
                }
            }
            delta[t * l + y] = best + em[t * l + y];
            back[t * l + y] = arg;
        }
    }
    let mut last = 0;
    let mut best = f64::NEG_INFINITY;
    for y in 0..l {
        let s = delta[(n - 1) * l + y] + view.end(y);
        if s > best {
            best = s;
            last = y;
        }
    }
    let mut out = vec![0; n];
    let mut cur = last;
    for t in (0..n).rev() {
        out[t] = cur;
        cur = back[t * l + cur];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{CsrInstances, FeatId, Instance};

    /// Model with 2 labels / 2 features and hand-set weights.
    fn toy_model() -> CrfModel {
        let mut m = CrfModel::new(2, 2);
        m.params[0] = 2.0; // f0 -> label 0
        m.params[3] = 2.0; // f1 -> label 1
        let t = m.trans_offset();
        m.params[t + 1] = 0.5; // 0 -> 1 preferred
        m
    }

    /// Brute-force log Z by enumerating all labellings.
    fn brute_log_z(m: &CrfModel, feats: &[Vec<FeatId>]) -> f64 {
        let n = feats.len();
        let l = m.n_labels;
        let mut scores = Vec::new();
        let total = l.pow(n as u32);
        for mut code in 0..total {
            let mut labels = Vec::with_capacity(n);
            for _ in 0..n {
                labels.push(code % l);
                code /= l;
            }
            scores.push(m.sequence_score(feats, &labels));
        }
        crate::numeric::log_sum_exp(&scores)
    }

    #[test]
    fn forward_log_z_matches_brute_force() {
        let m = toy_model();
        let feats = vec![vec![0], vec![1], vec![0, 1]];
        let fwd = forward(&m, &feats);
        let brute = brute_log_z(&m, &feats);
        assert!(
            (fwd.log_z - brute).abs() < 1e-10,
            "{} vs {brute}",
            fwd.log_z
        );
    }

    #[test]
    fn node_marginals_sum_to_one() {
        let m = toy_model();
        let feats = vec![vec![0], vec![], vec![1]];
        let marg = marginals(&m, &feats);
        for t in 0..feats.len() {
            let s: f64 = marg.node[t].iter().sum();
            assert!((s - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn edge_marginals_are_consistent_with_nodes() {
        let m = toy_model();
        let feats = vec![vec![0], vec![1], vec![]];
        let marg = marginals(&m, &feats);
        // Sum over p of edge[t-1][p][q] equals node[t][q].
        for t in 1..feats.len() {
            for q in 0..2 {
                let s: f64 = (0..2).map(|p| marg.edge[t - 1][p][q]).sum();
                assert!((s - marg.node[t][q]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn marginals_into_is_bitwise_identical_to_nested() {
        let m = toy_model();
        let instances = vec![
            Instance {
                features: vec![vec![0], vec![1], vec![0, 1], vec![]],
                labels: vec![0, 1, 0, 1],
            },
            Instance {
                features: vec![vec![1]],
                labels: vec![1],
            },
        ];
        let csr = CsrInstances::pack(&instances);
        let mut scratch = MargScratch::default();
        for (s, inst) in instances.iter().enumerate() {
            let nested = marginals(&m, &inst.features);
            // Reuse the same scratch across sequences of different
            // lengths — exactly the training access pattern.
            marginals_into(m.view(), &csr.seq(s), &mut scratch);
            assert_eq!(nested.log_z.to_bits(), scratch.log_z.to_bits());
            let l = m.n_labels;
            for t in 0..inst.len() {
                for y in 0..l {
                    assert_eq!(
                        nested.node[t][y].to_bits(),
                        scratch.node[t * l + y].to_bits(),
                        "node[{t}][{y}] of seq {s}"
                    );
                }
            }
            for t in 1..inst.len() {
                for p in 0..l {
                    for q in 0..l {
                        assert_eq!(
                            nested.edge[t - 1][p][q].to_bits(),
                            scratch.edge[(t - 1) * l * l + p * l + q].to_bits(),
                            "edge[{}][{p}][{q}] of seq {s}",
                            t - 1
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn viterbi_matches_brute_force_argmax() {
        let m = toy_model();
        let feats = vec![vec![0], vec![1], vec![0]];
        let got = viterbi(&m, &feats);

        let n = feats.len();
        let mut best_labels = vec![0; n];
        let mut best = f64::NEG_INFINITY;
        for code in 0..(2usize.pow(n as u32)) {
            let labels: Vec<usize> = (0..n).map(|i| (code >> i) & 1).collect();
            let s = m.sequence_score(&feats, &labels);
            if s > best {
                best = s;
                best_labels = labels;
            }
        }
        assert_eq!(got, best_labels);
    }

    #[test]
    fn decode_confidence_is_the_posterior_of_the_decoded_label() {
        let m = toy_model();
        let feats = vec![vec![0], vec![1], vec![0]];
        let (labels, confidence) = viterbi_with_confidence(&m, &feats, |_| true);
        assert_eq!(labels, viterbi(&m, &feats), "decode unchanged by scoring");
        assert_eq!(confidence.len(), labels.len());
        let marg = marginals(&m, &feats);
        for (t, (&y, &c)) in labels.iter().zip(&confidence).enumerate() {
            assert!(c > 0.0 && c <= 1.0 + 1e-12, "conf[{t}] = {c}");
            assert!(
                (c - marg.node[t][y]).abs() < 1e-12,
                "conf[{t}] = {c} vs marginal {}",
                marg.node[t][y]
            );
        }
        let (empty_labels, empty_conf) =
            viterbi_with_confidence(&m, &[] as &[Vec<FeatId>], |_| true);
        assert!(empty_labels.is_empty() && empty_conf.is_empty());
        let (skipped_labels, skipped_conf) = viterbi_with_confidence(&m, &feats, |_| false);
        assert_eq!(
            skipped_labels, labels,
            "the predicate never changes the decode"
        );
        assert!(skipped_conf.is_empty(), "rejected labels get no confidence");
    }

    #[test]
    fn empty_sequence_inference() {
        let m = toy_model();
        assert!(viterbi(&m, &[] as &[Vec<FeatId>]).is_empty());
        assert_eq!(forward(&m, &[] as &[Vec<FeatId>]).log_z, 0.0);
        let marg = marginals(&m, &[] as &[Vec<FeatId>]);
        assert!(marg.node.is_empty() && marg.edge.is_empty());
        let mut scratch = MargScratch::default();
        marginals_into(m.view(), &[] as &[Vec<FeatId>], &mut scratch);
        assert_eq!(scratch.log_z, 0.0);
    }

    #[test]
    fn transitions_influence_decode() {
        // Emissions are ambiguous; transitions must decide.
        let mut m = CrfModel::new(1, 2);
        let t = m.trans_offset();
        m.params[t] = -1.0; // discourage 0->0
        m.params[t + 1] = 1.0; // encourage 0->1
        m.params[t + 2] = 1.0; // encourage 1->0
        m.params[t + 3] = -1.0;
        let s = m.start_offset();
        m.params[s] = 0.1; // start at 0
        let feats = vec![vec![], vec![], vec![], vec![]];
        assert_eq!(viterbi(&m, &feats), vec![0, 1, 0, 1]);
    }
}
