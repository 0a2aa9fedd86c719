//! Property-based tests for CRF inference on random models.

use proptest::prelude::*;

use pae_crf::data::{CsrInstances, FeatureSeq, Instance};
use pae_crf::inference::{marginals, viterbi, viterbi_with_confidence};
use pae_crf::CrfModel;

/// Builds a model with the given parameters (length must match).
fn model(n_features: usize, n_labels: usize, params: Vec<f64>) -> CrfModel {
    let mut m = CrfModel::new(n_features, n_labels);
    assert_eq!(m.params.len(), params.len());
    m.params = params;
    m
}

/// Strategy: one random nested-layout instance (empty feature lists
/// and single-position sequences included).
fn instance() -> impl Strategy<Value = Instance> {
    proptest::collection::vec(proptest::collection::vec(0u32..50, 0..6), 1..8).prop_flat_map(
        |features| {
            let n = features.len();
            proptest::collection::vec(0usize..5, n).prop_map(move |labels| Instance {
                features: features.clone(),
                labels,
            })
        },
    )
}

/// Strategy: a small random model + a compatible feature sequence.
fn model_and_features() -> impl Strategy<Value = (CrfModel, Vec<Vec<u32>>)> {
    (2usize..4, 2usize..4).prop_flat_map(|(n_features, n_labels)| {
        let dim = CrfModel::param_len(n_features, n_labels);
        let params = proptest::collection::vec(-2.0..2.0f64, dim);
        let feats = proptest::collection::vec(
            proptest::collection::vec(0u32..n_features as u32, 0..n_features),
            1..5,
        );
        (params, feats).prop_map(move |(p, f)| (model(n_features, n_labels, p), f))
    })
}

/// Strategy: a small random model + a feature sequence of 0 to 8
/// positions (the empty sentence included), for decode pins.
fn decode_case() -> impl Strategy<Value = (CrfModel, Vec<Vec<u32>>)> {
    (2usize..6, 2usize..6).prop_flat_map(|(n_features, n_labels)| {
        let dim = CrfModel::param_len(n_features, n_labels);
        let params = proptest::collection::vec(-3.0..3.0f64, dim);
        let feats = proptest::collection::vec(
            proptest::collection::vec(0u32..n_features as u32, 0..n_features),
            0..9,
        );
        (params, feats).prop_map(move |(p, f)| (model(n_features, n_labels, p), f))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The confidence decode pins to the reference kernels: its labels
    /// are `viterbi`'s whatever the predicate answers, the predicate
    /// sees exactly those labels once, every confidence is bit for bit
    /// the nested `marginals(..).node[t][ŷ_t]`, and a rejecting
    /// predicate gets no confidence at all (forward–backward skipped).
    #[test]
    fn confidence_decode_pins_to_viterbi_and_marginals(
        (m, feats) in decode_case(),
        accept in 0u32..2,
    ) {
        let accept = accept == 1;
        let expected = viterbi(&m, &feats);
        let mut seen = Vec::new();
        let (labels, confidence) = viterbi_with_confidence(&m, &feats, |l| {
            seen.push(l.to_vec());
            accept
        });
        prop_assert_eq!(&labels, &expected);
        prop_assert_eq!(seen, vec![expected.clone()]);
        if !accept {
            prop_assert!(confidence.is_empty(), "rejected labels got confidence");
            return;
        }
        prop_assert_eq!(confidence.len(), labels.len());
        let marg = marginals(&m, &feats);
        for (t, (&y, &c)) in labels.iter().zip(&confidence).enumerate() {
            prop_assert_eq!(
                c.to_bits(),
                marg.node[t][y].to_bits(),
                "confidence[{}] = {} vs marginal {}",
                t,
                c,
                marg.node[t][y]
            );
        }
    }

    /// log Z must upper-bound the score of every labelling, and the
    /// Viterbi labelling must score at least as high as random ones.
    #[test]
    fn log_partition_dominates_and_viterbi_is_argmax(
        (m, feats) in model_and_features(),
        random_labels in proptest::collection::vec(0usize..4, 1..5),
    ) {
        let log_z = m.log_partition(&feats);
        let best = viterbi(&m, &feats);
        let best_score = m.sequence_score(&feats, &best);
        prop_assert!(log_z >= best_score - 1e-9, "logZ {log_z} < viterbi {best_score}");

        // Compare against an arbitrary labelling of the right length.
        let labels: Vec<usize> = random_labels
            .iter()
            .cycle()
            .take(feats.len())
            .map(|&l| l % m.n_labels)
            .collect();
        let score = m.sequence_score(&feats, &labels);
        prop_assert!(best_score >= score - 1e-9, "viterbi {best_score} < {score}");
    }

    /// Node marginals are distributions; edge marginals are consistent
    /// with node marginals on both sides.
    #[test]
    fn marginals_are_consistent((m, feats) in model_and_features()) {
        let marg = marginals(&m, &feats);
        let n = feats.len();
        let l = m.n_labels;
        for t in 0..n {
            let sum: f64 = marg.node[t].iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-8, "node[{t}] sums to {sum}");
            for &p in &marg.node[t] {
                prop_assert!((-1e-9..=1.0 + 1e-9).contains(&p));
            }
        }
        for t in 1..n {
            for q in 0..l {
                let s: f64 = (0..l).map(|p| marg.edge[t - 1][p][q]).sum();
                prop_assert!((s - marg.node[t][q]).abs() < 1e-8);
            }
            for p in 0..l {
                let s: f64 = (0..l).map(|q| marg.edge[t - 1][p][q]).sum();
                prop_assert!((s - marg.node[t - 1][p]).abs() < 1e-8);
            }
        }
    }

    /// The packed-training-set invariant: flattening nested instances
    /// into the CSR arena and expanding back reproduces the nested
    /// layout exactly, and every per-position view (labels, feature
    /// slices, the [`FeatureSeq`] accessor inference walks) agrees
    /// with the nested accessors.
    #[test]
    fn csr_pack_round_trips_nested_layout(
        insts in proptest::collection::vec(instance(), 0..6),
    ) {
        let packed = CsrInstances::pack(&insts);
        prop_assert_eq!(packed.len(), insts.len());
        prop_assert_eq!(
            packed.n_positions(),
            insts.iter().map(Instance::len).sum::<usize>()
        );
        prop_assert_eq!(packed.to_instances(), insts.clone());
        for (s, inst) in insts.iter().enumerate() {
            let seq = packed.seq(s);
            prop_assert_eq!(seq.len(), inst.len());
            prop_assert_eq!(seq.labels, inst.labels.as_slice());
            for t in 0..inst.len() {
                prop_assert_eq!(seq.feats(t), inst.features[t].as_slice());
                prop_assert_eq!(FeatureSeq::feats(&seq, t), inst.features[t].as_slice());
            }
        }
    }

    /// Structural invariant of the NLL gradient: summed over labels,
    /// empirical and expected counts cancel for every feature, because
    /// both the marginals and the gold labelling put exactly one unit
    /// of probability mass per firing position.
    #[test]
    fn gradient_rows_sum_to_zero((m, feats) in model_and_features()) {
        let labels: Vec<usize> = (0..feats.len()).map(|i| i % m.n_labels).collect();
        let instances = vec![Instance { features: feats, labels }];
        let mut grad = vec![0.0; m.params.len()];
        pae_crf::train::nll_and_grad(&m, &instances, &mut grad);
        // For each feature f: sum over labels of grad equals
        // (expected count − empirical count) summed over labels, which
        // is zero because both marginals and the gold labelling put
        // exactly one unit of mass per firing position.
        for f in 0..m.n_features {
            let row: f64 = (0..m.n_labels).map(|l| grad[f * m.n_labels + l]).sum();
            prop_assert!(row.abs() < 1e-8, "feature {f} row sum {row}");
        }
    }
}
