import math
from fractions import Fraction as F

import pytest

from genfun_identities import even_part_check
from zetaroutes import bernoulli, series
from zetaroutes.bernoulli import bernoulli_via_recurrence, bernoulli_via_series

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


def test_methods_agree_through_200():
    oracle = tuple(recurrence_oracle(200))
    assert bernoulli_via_series(200) == oracle
    assert bernoulli_via_recurrence(200) == oracle


def test_independent_methods_agree_through_400():
    assert bernoulli_via_series(400) == bernoulli_via_recurrence(400)


def test_tangent_numbers():
    # T_k of tan z = sum T_k z^{2k-1}/(2k-1)!, recovered from
    # B_2k = (-1)^{k-1} 2k T_k / (4^k (4^k - 1)); the values are the Taylor
    # coefficients of tan, independent of both methods.
    table = bernoulli_via_recurrence(12)
    tangent = [
        (-1) ** (k - 1) * table[2 * k] * 4**k * (4**k - 1) / (2 * k) for k in range(1, 7)
    ]
    assert tangent == [1, 2, 16, 272, 7936, 353792]


# Each method with the state of a table that holds nothing it computed.
FRESH_TABLE = pytest.mark.parametrize(
    "method, prefix, fresh",
    [
        (bernoulli_via_series, "_SERIES_PREFIX", []),
        (bernoulli_via_recurrence, "_TANGENT_PREFIX", []),
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
        assert table == tuple(oracle[: n + 1])


@FRESH_TABLE
def test_concurrent_growth_stores_each_entry_once(
    monkeypatch, concurrently, method, prefix, fresh
):
    monkeypatch.setattr(bernoulli, prefix, list(fresh))
    sizes = [60, 5, 33, 17, 48, 2, 60, 29]
    oracle = recurrence_oracle(max(sizes))
    tables = concurrently(method, sizes)
    for n, table in zip(sizes, tables):
        assert table == tuple(oracle[: n + 1])


def primes_through(n):
    return [p for p in range(2, n + 1) if all(p % q for q in range(2, int(p**0.5) + 1))]


@FRESH_TABLE
def test_von_staudt_clausen_denominators(monkeypatch, method, prefix, fresh):
    # The denominator of B_2k is the product of the primes p with (p-1) | 2k:
    # expected values that come from the primes alone, not from either
    # algorithm. Grown from scratch, each table meets a new prime factor at
    # every prime 2k+1.
    monkeypatch.setattr(bernoulli, prefix, list(fresh))
    table = method(400)
    primes = primes_through(401)
    for n in range(2, 401, 2):
        expected = 1
        for p in primes:
            if n % (p - 1) == 0:
                expected *= p
        assert table[n].denominator == expected, n


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


@pytest.mark.parametrize("order", [*range(13), 200, 400])
def test_series_table_is_the_tangent_table(order):
    # the two builders share no code, so equality at large n checks both;
    # n = 0 runs no step of the recurrence and n = 1 reaches only B_1
    assert bernoulli._series_table(order) == bernoulli._tangent_table(order)


@pytest.mark.parametrize("order", [0, 1, 2, 3, 4, 5, 51, 100, 301])
def test_series_table_is_the_generic_inversion(order):
    # the general exponential-scale kernel, which the table once ran on,
    # inverting (e^z - 1)/z = sum z^k/(k+1)!; it evaluates every row, so its
    # odd entries are derived there, not assumed
    alpha = [F(1, k + 1) for k in range(order + 1)]
    assert bernoulli._series_table(order) == series.invert_exponential(alpha)


def test_series_table_satisfies_the_odd_rows():
    # the table evaluates only the even rows and k = 1 of
    # sum_{i=0..k} C(k+1, i) B_i = 0; the odd rows k >= 3 must hold as well
    table = bernoulli._series_table(200)
    for k in range(3, 200, 2):
        assert sum(math.comb(k + 1, i) * table[i] for i in range(k + 1)) == 0, k
