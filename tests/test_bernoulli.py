from fractions import Fraction as F

import hypothesis.strategies as st
import pytest
from hypothesis import given

from zetaroutes import bernoulli
from zetaroutes.bernoulli import (
    BernoulliTable,
    bernoulli_via_recurrence,
    bernoulli_via_series,
    even_part_check,
    faulhaber_sum,
)

# Frozen oracle values, recomputed here by the explicit recurrence.
ORACLE = {2: F(1, 6), 3: F(0), 4: F(-1, 30), 12: F(-691, 2730)}


def recurrence_oracle(n_max):
    from math import comb

    values = [F(1)]
    for n in range(1, n_max + 1):
        acc = sum(F(comb(n + 1, k)) * values[k] for k in range(n))
        values.append(-acc / (n + 1))
    return values


def test_oracle_constants_are_what_the_recurrence_gives():
    vals = recurrence_oracle(12)
    for n, expected in ORACLE.items():
        assert vals[n] == expected


class TestSeriesMethod:
    def test_b1_and_abel_sum_of_ones(self):
        table = bernoulli_via_series(1)
        assert table[1] == F(-1, 2)
        assert 1 + table[1] == F(1, 2)  # the Abel sum 1 - 1 + 1 - ... = -B_1

    def test_b2(self):
        assert bernoulli_via_series(2)[2] == ORACLE[2]

    def test_b12(self):
        assert bernoulli_via_series(12)[12] == ORACLE[12]


class TestRecurrenceMethod:
    def test_base_case(self):
        assert bernoulli_via_recurrence(0)[0] == 1

    def test_b3_vanishes(self):
        assert bernoulli_via_recurrence(3)[3] == 0

    def test_b4(self):
        assert bernoulli_via_recurrence(4)[4] == ORACLE[4]


def test_methods_agree_through_32():
    a = bernoulli_via_series(32)
    b = bernoulli_via_recurrence(32)
    assert a.values == b.values
    assert a.values == tuple(recurrence_oracle(32))


# Each method with the state of a table that holds nothing it computed.
FRESH_TABLE = pytest.mark.parametrize(
    "method, prefix, fresh",
    [
        (bernoulli_via_series, "_SERIES_PREFIX", []),
        (bernoulli_via_recurrence, "_RECURRENCE_PREFIX", [F(1)]),
    ],
    ids=["series", "recurrence"],
)


@pytest.mark.parametrize(
    "sizes",
    [(40, 25, 10, 3, 0), (0, 3, 10, 25, 40), (10, 3, 40, 0, 25, 41)],
    ids=["descending", "ascending", "interleaved"],
)
@FRESH_TABLE
def test_growing_table_in_any_request_order(monkeypatch, sizes, method, prefix, fresh):
    monkeypatch.setattr(bernoulli, prefix, list(fresh))
    oracle = recurrence_oracle(max(sizes))
    for n in sizes:
        table = method(n)
        assert table.max_index == n
        assert table.values == tuple(oracle[: n + 1])


@FRESH_TABLE
def test_concurrent_growth_stores_each_entry_once(
    monkeypatch, concurrently, method, prefix, fresh
):
    monkeypatch.setattr(bernoulli, prefix, list(fresh))
    sizes = [60, 5, 33, 17, 48, 2, 60, 29]
    oracle = recurrence_oracle(max(sizes))
    tables = concurrently(method, sizes)
    for n, table in zip(sizes, tables):
        assert table.values == tuple(oracle[: n + 1])


def test_odd_entries_vanish():
    table = bernoulli_via_series(33)
    for n in range(3, 34, 2):
        assert table[n] == 0


def test_even_sign_alternation():
    table = bernoulli_via_recurrence(32)
    for n in range(1, 15):
        assert table[2 * n] * table[2 * n + 2] < 0


class TestEvenPartCheck:
    def test_order_20(self):
        assert even_part_check(20) is True

    def test_order_3(self):
        assert even_part_check(3) is True

    def test_order_2(self):
        assert even_part_check(2) is True

    def test_small_order_rejected(self):
        with pytest.raises(ValueError):
            even_part_check(1)


class TestFaulhaber:
    def test_arithmetic_series(self):
        assert faulhaber_sum(1, 100) == 5050

    def test_squares(self):
        assert faulhaber_sum(2, 4) == 30

    def test_tenth_powers_against_brute_force(self):
        assert faulhaber_sum(10, 50) == sum(k**10 for k in range(1, 51))

    def test_zeroth_power(self):
        assert faulhaber_sum(0, 17) == 17

    @given(st.integers(0, 10), st.integers(2, 200))
    def test_difference_recovers_the_power(self, m, n):
        assert faulhaber_sum(m, n) - faulhaber_sum(m, n - 1) == F(n) ** m

    @given(st.integers(0, 10), st.integers(1, 200))
    def test_matches_brute_force(self, m, n):
        assert faulhaber_sum(m, n) == sum(F(k) ** m for k in range(1, n + 1))


def test_table_validates_length():
    with pytest.raises(ValueError):
        BernoulliTable((F(1),), 3)
