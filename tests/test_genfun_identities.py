"""Negative controls for the generating-function identity checks: each one
reads the series kernel through its own namespace, so a corrupt kernel
there, or a corrupt theta chain, must make it fail. Without them nothing
shows that a check is not vacuous. Each check holds at these arguments in
test_acceptance.py or test_bernoulli.py."""

import pytest

import genfun_identities
from genfun_identities import (
    even_part_check,
    finite_G_check,
    odd_genfun_check,
    operator_genfun_check,
)
from zetaroutes import abel

CHECKS = {
    "finite_G": lambda: finite_G_check(5, 10),
    "odd": lambda: odd_genfun_check(21),
    "even_part": lambda: even_part_check(20),
    "operator": lambda: operator_genfun_check(20),
}


@pytest.mark.parametrize("check", CHECKS.values(), ids=CHECKS)
def test_fails_on_a_corrupt_inversion(monkeypatch, check):
    invert = genfun_identities.invert_exponential

    def wrong(alpha):
        return [b * 3 if k > 1 else b for k, b in enumerate(invert(alpha))]

    monkeypatch.setattr(genfun_identities, "invert_exponential", wrong)
    assert check() is False


def test_operator_check_fails_on_a_corrupt_theta_chain(monkeypatch):
    chain = [[3 * c for c in abel._theta_numerator(m)] for m in range(20)]
    monkeypatch.setattr(abel, "_THETA_NUMERATORS", [[1]] + chain[1:])
    assert operator_genfun_check(20) is False
