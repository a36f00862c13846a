"""Tests for inverted access (Algorithm 2) and next-answer access (Remark 3)."""

import pytest

from repro import LexDirectAccess, LexOrder, NotAnAnswerError
from repro.core import access as access_module
from repro.workloads import paper_queries as pq
from tests.helpers import random_database_for, sorted_answers


class TestInvertedAccess:
    def test_inverse_of_access_on_figure2(self):
        access = LexDirectAccess(pq.TWO_PATH, pq.FIGURE2_DATABASE, pq.FIGURE2_LEX_XYZ)
        for k in range(access.count):
            assert access.inverted_access(access[k]) == k

    def test_inverse_of_access_on_q3(self):
        access = LexDirectAccess(pq.Q3, pq.FIGURE4_DATABASE, pq.Q3_ORDER)
        for k in range(access.count):
            assert access.inverted_access(access[k]) == k

    def test_non_answer_raises(self):
        access = LexDirectAccess(pq.TWO_PATH, pq.FIGURE2_DATABASE, pq.FIGURE2_LEX_XYZ)
        with pytest.raises(NotAnAnswerError):
            access.inverted_access((1, 2, 3))
        with pytest.raises(NotAnAnswerError):
            access.inverted_access((99, 99, 99))

    @pytest.mark.parametrize("answer", [("a", 1, 2), (None, 1, 2), ([1], 1, 2), (1, "b", 2)])
    @pytest.mark.parametrize("descending", [(), ("x", "y")])
    def test_unorderable_value_is_not_an_answer_in_the_object_walk(self, answer, descending):
        order = LexOrder(("x", "y", "z"), descending)
        access = LexDirectAccess(pq.TWO_PATH, pq.FIGURE2_DATABASE, order)
        with pytest.raises(NotAnAnswerError):
            access_module.inverted_access(access._instance, answer)
        with pytest.raises(NotAnAnswerError):
            access.inverted_access(answer)

    def test_wrong_arity_raises(self):
        access = LexDirectAccess(pq.TWO_PATH, pq.FIGURE2_DATABASE, pq.FIGURE2_LEX_XYZ)
        with pytest.raises(NotAnAnswerError):
            access.inverted_access((1, 2))

    @pytest.mark.parametrize("seed", range(3))
    def test_round_trip_on_random_databases(self, seed):
        db = random_database_for(pq.Q4, 25, 4, seed=seed)
        access = LexDirectAccess(pq.Q4, db, pq.Q4_ORDER)
        for k in range(access.count):
            assert access.inverted_access(access[k]) == k


class TestNextAnswerIndex:
    def test_existing_answer_returns_its_index(self):
        access = LexDirectAccess(pq.TWO_PATH, pq.FIGURE2_DATABASE, pq.FIGURE2_LEX_XYZ)
        for k, answer in enumerate(list(access)):
            assert access.next_answer_index(answer) == k

    def test_smaller_than_everything_returns_zero(self):
        access = LexDirectAccess(pq.TWO_PATH, pq.FIGURE2_DATABASE, pq.FIGURE2_LEX_XYZ)
        assert access.next_answer_index((0, 0, 0)) == 0

    def test_larger_than_everything_returns_count(self):
        access = LexDirectAccess(pq.TWO_PATH, pq.FIGURE2_DATABASE, pq.FIGURE2_LEX_XYZ)
        assert access.next_answer_index((99, 99, 99)) == access.count

    def test_between_answers_returns_successor(self):
        access = LexDirectAccess(pq.TWO_PATH, pq.FIGURE2_DATABASE, pq.FIGURE2_LEX_XYZ)
        # (1, 3, 0) sits between (1, 2, 5) and (1, 5, 3) in ⟨x, y, z⟩ order.
        assert access.next_answer_index((1, 3, 0)) == 1
        # (2, 0, 0) sits between the x=1 block and the x=6 answer.
        assert access.next_answer_index((2, 0, 0)) == 4

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_oracle_on_random_targets(self, seed):
        import random

        rng = random.Random(seed)
        db = random_database_for(pq.TWO_PATH, 20, 5, seed=seed)
        order = LexOrder(("x", "y", "z"))
        access = LexDirectAccess(pq.TWO_PATH, db, order)
        answers = sorted_answers(pq.TWO_PATH, db, order=order)
        for _ in range(30):
            target = (rng.randrange(6), rng.randrange(6), rng.randrange(6))
            expected = sum(1 for a in answers if a < target)
            assert access.next_answer_index(target) == expected
