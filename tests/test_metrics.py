"""Scoring identities and RITU arithmetic."""

import pytest
from hypothesis import given, strategies as st

from slimrag.index import TokenAccounting
from slimrag.metrics import compute_ritu, ordered_sum, score_retrieval
from slimrag.tokenization import count_tokens


class TestScoreRetrieval:
    def test_perfect_match(self):
        score = score_retrieval({"a", "b"}, {"a", "b"})
        assert (score.accuracy, score.recall, score.f1) == (1.0, 1.0, 1.0)

    def test_disjoint_sets(self):
        score = score_retrieval({"a"}, {"b"})
        assert (score.accuracy, score.recall, score.f1) == (0.0, 0.0, 0.0)

    def test_hand_computed_harmonic_mean(self):
        score = score_retrieval({"a", "b", "c", "d"}, {"a", "b"})
        assert score.accuracy == pytest.approx(0.5, abs=1e-9)
        assert score.recall == pytest.approx(1.0, abs=1e-9)
        assert score.f1 == pytest.approx(2 / 3, abs=1e-6)

    def test_empty_retrieval(self):
        score = score_retrieval(set(), {"a"})
        assert score.accuracy == 0.0
        assert score.recall == 0.0
        assert score.f1 == 0.0

    def test_empty_gold_rejected(self):
        with pytest.raises(ValueError):
            score_retrieval({"a"}, set())

    def test_accuracy_of_a_b_is_recall_of_b_a(self):
        a = {"x", "y", "z"}
        b = {"y", "z", "w", "v"}
        assert score_retrieval(a, b).accuracy == score_retrieval(b, a).recall

    @given(
        st.sets(st.integers(0, 30), min_size=0, max_size=15),
        st.sets(st.integers(0, 30), min_size=1, max_size=15),
    )
    def test_f1_bounds_and_hit_counts_integral(self, retrieved, gold):
        retrieved = {str(x) for x in retrieved}
        gold = {str(x) for x in gold}
        score = score_retrieval(retrieved, gold)
        assert 0.0 <= score.f1 <= 2 * min(score.accuracy, score.recall) + 1e-12
        if score.accuracy == score.recall:
            assert score.f1 == pytest.approx(score.accuracy, abs=1e-12)
        hits_from_acc = score.accuracy * score.retrieved_count
        hits_from_rec = score.recall * score.gold_count
        assert abs(hits_from_acc - round(hits_from_acc)) < 1e-9
        assert abs(hits_from_rec - round(hits_from_rec)) < 1e-9


class TestRitu:
    def _accounting(self, extraction_in=0, extraction_out=0, embedding_in=0, tctc=0):
        acct = TokenAccounting(tctc=tctc)
        acct.record("extraction-prompt-in", extraction_in)
        acct.record("extraction-out", extraction_out)
        acct.record("embedding-in", embedding_in)
        return acct

    def test_zero_numerator(self):
        report = compute_ritu(self._accounting(tctc=10))
        assert report.ritu == 0.0

    def test_unit_ratio(self):
        report = compute_ritu(self._accounting(extraction_in=10, tctc=10))
        assert report.ritu == 1.0

    def test_direct_division(self):
        report = compute_ritu(self._accounting(extraction_in=163, tctc=10))
        assert report.ritu == pytest.approx(16.3, abs=1e-12)

    def test_empty_corpus_flagged(self):
        report = compute_ritu(self._accounting(tctc=0))
        assert report.ritu == 0.0
        assert report.empty_corpus

    def test_retrieval_labels_excluded_from_tuic(self):
        acct = self._accounting(extraction_in=5, tctc=10)
        acct.record("decomposition-in", 100)
        acct.record("decomposition-out", 100)
        report = compute_ritu(acct)
        assert report.tuic == 5

    def test_scale_consistency(self):
        small = compute_ritu(self._accounting(extraction_in=7, tctc=3))
        large = compute_ritu(self._accounting(extraction_in=14, tctc=6))
        assert small.ritu == pytest.approx(large.ritu, abs=1e-12)

    def test_tuic_equals_indexing_breakdown_sum(self):
        acct = self._accounting(extraction_in=3, extraction_out=4, embedding_in=5, tctc=9)
        report = compute_ritu(acct)
        assert report.tuic == 12
        assert report.tuic == sum(
            report.breakdown[label]
            for label in ("extraction-prompt-in", "extraction-out", "embedding-in")
        )


class TestCountTokensReexport:
    def test_examples(self):
        assert count_tokens("") == 0
        assert count_tokens("hello world") == 2
        assert count_tokens("don't stop, now.") == 5


def test_ordered_sum_adds_left_to_right_from_zero():
    # Python 3.12's compensated sum() returns 1.0 here.
    assert ordered_sum([1e16, 1.0, -1e16]) == 0.0
    assert ordered_sum([]) == 0.0
    assert ordered_sum([-0.0]).hex() == "0x0.0p+0"
