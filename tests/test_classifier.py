"""Classification tests: templates, cosine scoring, ensembles, label assignment."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eovseg import reference
from eovseg.classifier import (
    MaskLabel,
    TextEmbeddings,
    build_text_embeddings,
    classify,
    ensemble,
    in_vocab_scores,
    out_vocab_scores,
)
from eovseg.kernels import l2_normalize, sigmoid, softmax
from eovseg.tensor import Rng

D = 8

# 0.8^0.6 * 0.5^0.4, evaluated at 30 significant digits with mpmath
GEOMETRIC_REFERENCE = 0.662890803467997360


def make_text(n_class=3, seed=1):
    rows = l2_normalize(Rng(seed).normal((n_class, D)))
    return TextEmbeddings(
        embeddings=rows,
        class_names=[f"c{i}" for i in range(n_class)],
        seen=np.arange(n_class) % 2 == 0,
    )


class TestTextEmbeddings:
    def test_single_template_is_normalized_copy(self):
        t = Rng(2).normal((1, 3, D))
        text = build_text_embeddings(t, ["a", "b", "c"], np.array([True, False, True]))
        assert np.allclose(text.embeddings, l2_normalize(t[0]), atol=1e-6)

    def test_cancelling_templates_fail(self):
        t0 = Rng(3).normal((1, 2, D))[0]
        templates = np.stack([t0, -t0])
        with pytest.raises(ValueError, match="zero vector"):
            build_text_embeddings(templates, ["a", "b"], np.array([True, False]))

    def test_three_template_loop_oracle(self):
        templates = Rng(4).normal((3, 4, D))
        text = build_text_embeddings(templates, list("abcd"), np.ones(4, dtype=bool))
        ref = reference.build_text_embeddings_reference(templates)
        assert np.max(np.abs(text.embeddings - ref)) < 1e-6

    def test_unit_rows_enforced(self):
        for value in (0.5, np.nan):  # NaN norms fail every comparison, so are checked too
            with pytest.raises(ValueError, match="unit-norm"):
                TextEmbeddings(
                    embeddings=np.full((2, D), value, dtype=np.float32),
                    class_names=["a", "b"],
                    seen=np.array([True, False]),
                )


class TestInVocab:
    def test_self_match_sharp_temperature(self):
        text = make_text(4, seed=5)
        scores = in_vocab_scores(text.embeddings[2][None, :] * 3.0, text.embeddings)
        assert int(np.argmax(scores[0])) == 2
        assert scores[0, 2] > 0.99

    def test_equal_similarities_uniform(self):
        text = TextEmbeddings(
            embeddings=np.eye(3, D, dtype=np.float32),
            class_names=list("abc"),
            seen=np.ones(3, dtype=bool),
        )
        inst = np.zeros((1, D), dtype=np.float32)
        inst[0, 4] = 1.0  # orthogonal to every class row
        scores = in_vocab_scores(inst, text.embeddings)
        assert np.allclose(scores[0], 1 / 3, atol=1e-6)

    def test_rows_sum_to_one(self):
        text = make_text(5, seed=6)
        scores = in_vocab_scores(Rng(7).normal((4, D)), text.embeddings)
        assert np.max(np.abs(scores.sum(axis=1, dtype=np.float64) - 1.0)) < 1e-6

    def test_loop_oracle(self):
        text = make_text(3, seed=8)
        inst = Rng(9).normal((2, D))
        scores = in_vocab_scores(inst, text.embeddings)
        ref = reference.in_vocab_scores_reference(inst, text.embeddings)
        assert np.max(np.abs(scores - ref)) < 1e-6


class TestOutVocab:
    def test_constant_field_classifies_everywhere(self):
        text = make_text(3, seed=11)
        j = 1
        feat = np.repeat(text.embeddings[j][:, None], 16, axis=1).reshape(D, 4, 4) * 2.0
        probs = sigmoid(Rng(12).normal((5, 4, 4)))
        scores = out_vocab_scores(feat, probs, text.embeddings)
        assert np.all(np.argmax(scores, axis=1) == j)

    def test_uniform_masks_collapse_rows(self):
        text = make_text(4, seed=13)
        feat = Rng(14).normal((D, 4, 4))
        probs = np.full((3, 4, 4), 0.5, dtype=np.float32)
        scores = out_vocab_scores(feat, probs, text.embeddings)
        assert np.allclose(scores[0], scores[1], atol=1e-7)
        assert np.allclose(scores[1], scores[2], atol=1e-7)

    def test_composition_oracle(self):
        text = make_text(3, seed=15)
        feat = Rng(16).normal((D, 3, 3))
        probs = sigmoid(Rng(17).normal((2, 3, 3)))
        scores = out_vocab_scores(feat, probs, text.embeddings)
        ref = reference.out_vocab_scores_reference(feat, probs, text.embeddings)
        assert np.max(np.abs(scores - ref)) < 1e-5


class TestEnsemble:
    def _pair(self, seed=18, n=3, c=4):
        rng = Rng(seed)
        s_in = softmax(rng.normal((n, c), std=2.0), 1)
        s_out = softmax(rng.normal((n, c), std=2.0), 1)
        seen = np.arange(c) % 2 == 0
        return s_in, s_out, seen

    def test_geometric_reference_value(self):
        s = ensemble(np.float32([[0.8]]), np.float32([[0.5]]), np.array([True]))
        assert abs(float(s[0, 0]) - GEOMETRIC_REFERENCE) < 1e-6

    def test_seen_unseen_use_different_weights(self):
        s_in = np.float32([[0.8, 0.8]])
        s_out = np.float32([[0.5, 0.5]])
        s = ensemble(s_in, s_out, np.array([True, False]))
        assert abs(float(s[0, 0]) - 0.8**0.6 * 0.5**0.4) < 1e-6
        assert abs(float(s[0, 1]) - 0.8**0.2 * 0.5**0.8) < 1e-6

    def test_geometric_fixed_point(self):
        s_in, _, seen = self._pair(19)
        s = ensemble(s_in, s_in, seen)
        assert np.max(np.abs(s - s_in)) < 1e-6

    def test_nonpositive_geometric_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            ensemble(np.float32([[0.0]]), np.float32([[0.5]]), np.array([True]))

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(0.01, 0.99),
        st.floats(0.01, 0.99),
        st.floats(0.001, 0.9),
        st.booleans(),
    )
    def test_monotone_in_out_vocab_score(self, a, b, bump, seen_flag):
        s_in = np.float32([[a]])
        seen = np.array([seen_flag])
        lo = ensemble(s_in, np.float32([[b]]), seen)[0, 0]
        hi = ensemble(s_in, np.float32([[b + bump]]), seen)[0, 0]
        assert hi >= lo

    def test_oracle_agreement(self):
        s_in, s_out, seen = self._pair(20)
        got = ensemble(s_in, s_out, seen)
        ref = reference.ensemble_reference(s_in, s_out, seen)
        assert np.max(np.abs(got - ref)) < 1e-6


class TestClassify:
    def test_single_class_labels_zero(self):
        scores = np.float32([[1.0], [1.0], [1.0]])
        labels = classify(scores)
        assert [l.class_id for l in labels] == [0, 0, 0]

    def test_ties_break_to_lowest_class(self):
        scores = np.float32([[0.4, 0.4, 0.2]])
        assert classify(scores)[0].class_id == 0

    def test_argmax_oracle_and_scale_invariance(self):
        rng = Rng(24)
        vals = softmax(rng.normal((6, 4), std=2.0), 1)
        labels = classify(vals)
        for lab in labels:
            assert lab.class_id == int(np.argmax(vals[lab.mask_index]))
        scaled = classify(vals * np.float32(7.0))
        assert [(l.mask_index, l.class_id) for l in labels] == [
            (l.mask_index, l.class_id) for l in scaled
        ]
