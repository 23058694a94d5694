"""Tests for the exponent-pair calculus."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from oracles import exp_sum_abs
from primeineq.exppair import (ExponentPair, TRIVIAL_PAIR, a_process, apply_word,
                               b_process, pair_bound, parse_word, render_word,
                               search_pairs)
from primeineq.ledger import LONG_CHAIN_WORD


def F(a, b):
    return Fraction(a, b)


def test_classical_pairs():
    assert apply_word("AB") == ExponentPair(F(1, 6), F(2, 3))
    assert apply_word("A^2B") == ExponentPair(F(1, 14), F(11, 14))
    assert apply_word("A^3B") == ExponentPair(F(1, 30), F(13, 15))


def test_long_chain_pair():
    p = apply_word(LONG_CHAIN_WORD)
    assert p == ExponentPair(F(156989, 1244758), F(875691, 1244758))


def test_right_to_left_composition():
    assert apply_word("A^2B") == a_process(a_process(b_process(TRIVIAL_PAIR)))


def test_parse_and_render():
    assert parse_word("A^2B") == ("A", "A", "B")
    assert parse_word(" A B A^3 ") == ("A", "B", "A", "A", "A")
    assert render_word(("A", "A", "B", "A")) == "A^2BA"
    with pytest.raises(ValueError):
        parse_word("AXB")
    with pytest.raises(ValueError):
        parse_word("A^0")


def test_admissibility_validation():
    with pytest.raises(ValueError):
        ExponentPair(F(3, 4), F(3, 4))
    with pytest.raises(ValueError):
        ExponentPair(F(0, 1), F(1, 4))


def _pairs_to_depth(depth):
    seen = {TRIVIAL_PAIR}
    frontier = [TRIVIAL_PAIR]
    for _ in range(depth):
        nxt = []
        for p in frontier:
            for q in (a_process(p), b_process(p)):
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


def test_b_is_an_involution():
    for p in _pairs_to_depth(8):
        assert b_process(b_process(p)) == p


def test_a_preserves_admissibility():
    # construction of ExponentPair re-validates the ranges, so it is enough
    # that no constructor raises while enumerating
    assert len(_pairs_to_depth(10)) == 90


@given(st.lists(st.sampled_from(["A", "B"]), max_size=12))
def test_apply_word_matches_stepwise(letters):
    p = TRIVIAL_PAIR
    for ch in reversed(letters):
        p = a_process(p) if ch == "A" else b_process(p)
    assert apply_word(letters) == p


def test_pair_bound_dominates_exponential_sum():
    # implied-constant slack of 40; failure flags a formula bug, not a theorem
    pairs = [apply_word(w) for w in ("AB", "A^2B", "A^3B")]
    for c in (1.5, 2.05):
        for a in (256, 1024):
            for lambda1 in (1.0, 10.0, math.sqrt(a), float(a)):
                x = lambda1 / (c * a ** (c - 1))
                s = exp_sum_abs(x, c, a)
                for p in pairs:
                    assert s <= 40.0 * pair_bound(p, lambda1, a)


def test_search_trivial_objective():
    pair, word = search_pairs(lambda p: float(p.kappa), 1)
    assert (pair, word) == (TRIVIAL_PAIR, "")


def test_search_kappa_plus_lambda():
    # exhaustive to depth 4; AB attains the minimum 5/6
    pair, word = search_pairs(lambda p: float(p.kappa + p.lam), 4)
    assert word == "AB"
    assert pair == ExponentPair(F(1, 6), F(2, 3))


def test_search_beats_long_chain_baseline():
    c = 2.1
    obj = lambda p: float(p.kappa) * c + float(p.lam - p.kappa)
    baseline = obj(apply_word(LONG_CHAIN_WORD))
    pair, _ = search_pairs(obj, 30)
    assert obj(pair) <= baseline


def test_pair_bound_validates():
    with pytest.raises(ValueError):
        pair_bound(TRIVIAL_PAIR, -1.0, 10.0)
    with pytest.raises(ValueError):
        pair_bound(TRIVIAL_PAIR, 1.0, 0.5)
