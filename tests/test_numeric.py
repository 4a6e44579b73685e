import cmath
import inspect
import math
import os
import subprocess
import sys
from fractions import Fraction as F

import numpy as np
import pytest

import zetaroutes
from zetaroutes import numeric as numeric_module
from zetaroutes.gammafn import PoleAtNonpositiveInteger, gamma_complex
from zetaroutes.numeric import (
    ContourSpec,
    DomainError,
    NearPole,
    OutOfValidatedRange,
    QuadratureNotConverged,
    TooCloseToPositiveIntegerPole,
    _arc,
    _arc_nodes,
    _hankel,
    _integrand,
    _panel_nodes,
    _ray,
    _s_free_factors,
    _upper_ray,
    _weighted_terms,
    cotangent_check,
    cotangent_tail_bound,
    default_contour,
    funceq_residual,
    inverted_contour_bound,
    inverted_contour_check,
    zeta_em,
    zeta_hankel,
)
from zetaroutes.zeta_exact import zeta_even_positive, zeta_nonpositive

# Wider criterion grids live in test_acceptance.py; these are the module's
# own example points and failure modes.


class TestZetaEm:
    def test_at_two(self):
        exact = zeta_even_positive(1).to_float()
        assert abs(zeta_em(2) - exact) <= 1e-13
        assert zeta_em(2).real == pytest.approx(1.6449340668482264, rel=1e-13)

    def test_at_zero(self):
        assert abs(zeta_em(0) - (-0.5)) <= 1e-13

    def test_at_minus_three(self):
        exact = float(zeta_nonpositive(3))
        assert abs(zeta_em(-3) - exact) <= 1e-13
        assert exact == pytest.approx(1 / 120)

    def test_exact_values_through_minus_eight(self):
        for n in range(9):
            exact = float(zeta_nonpositive(n))
            assert abs(zeta_em(-n) - exact) <= 1e-10

    def test_near_pole_rejected(self):
        with pytest.raises(NearPole):
            zeta_em(1 + 1e-8j)

    def test_out_of_range_rejected(self):
        with pytest.raises(OutOfValidatedRange):
            zeta_em(-40)

    def test_imaginary_argument(self):
        # conjugate symmetry: zeta(conj s) = conj zeta(s)
        s = 0.5 + 14.134725j
        assert abs(zeta_em(s) - zeta_em(s.conjugate()).conjugate()) <= 1e-12

    # Exact doubles at points the golden CLI set lacks: the N = 2 cutoff at
    # negative integers, cancellation on the left, and the cutoff grown with
    # Re s and with Im s.
    @pytest.mark.parametrize(
        "s, pinned",
        [
            (-3, "(0.008333333333333333+0j)"),
            (-26, "(4.7171488404273987e-07+0j)"),
            (-10.5, "(0.011146122571498598+0j)"),
            (-4.01 + 34.02j, "(-1903.9750902774806+808.2601622112677j)"),
            (30 + 5j, "(0.9999999991171805+2.966266802595231e-10j)"),
            (0.5 + 1e4j, "(-0.33937380262188-0.03709150597970519j)"),
        ],
    )
    def test_bits_are_pinned(self, s, pinned):
        assert repr(zeta_em(s)) == pinned


def test_gauss_rule_is_leggauss_to_the_bit():
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(16)
    assert numeric_module._GAUSS_X.tobytes() == x.tobytes()
    assert numeric_module._GAUSS_W.tobytes() == w.tobytes()


def test_import_leaves_numpy_polynomial_unloaded():
    # the written-out rule spares each process numpy.polynomial's import
    src = os.path.dirname(os.path.dirname(zetaroutes.__file__))
    code = "import sys, zetaroutes.cli; print('numpy.polynomial' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def _integrand_at(x, s):
    """The integrand at the nodes x through the module's one expression, with
    x as an upper ray and no arc; the values at the conjugate nodes, the
    lower ray, are dropped."""
    no_arc = _s_free_factors(np.empty(0, dtype=complex))
    return _integrand(s, _s_free_factors(np.asarray(x, dtype=complex)), no_arc)[: len(x)]


def _rule_nodes(spec, panels_ray):
    """Every node the rule evaluates: the upper ray, the arc, the lower ray."""
    x, _ = _upper_ray(spec, panels_ray)
    arc, _ = _arc_nodes(spec.radius, panels_ray // 2)
    return np.concatenate([x, arc, np.conj(x)])


LEVELS = range(numeric_module._REFINEMENTS + 1)


class TestHankelIntegrand:
    def test_branch_at_minus_one(self):
        # (-x)^{s-1} = 1 at x = -1 for s = 2: log(1) = 0 on the principal branch
        got = complex(_integrand_at([-1], 2)[0])
        expected = 1 / (math.exp(-1) - 1)
        assert got == pytest.approx(expected, rel=1e-15)
        assert expected == pytest.approx(-1.5819767068693265)

    def test_exponent_zero_is_branch_free(self):
        assert complex(_integrand_at([-1], 1)[0]) == pytest.approx(-1.5819767068693265)

    @pytest.mark.parametrize("level", LEVELS)
    def test_cached_arc_is_the_arc_nodes(self, level):
        # The cached factors are those of the nodes the pole and cut checks see.
        panels = (16 << level) // 2
        arc, w = _arc_nodes(math.pi, panels)
        w_cached, factors = _arc(math.pi, panels)
        cached = (w_cached, *factors)
        fresh = (w, *_s_free_factors(arc))
        assert [a.tobytes() for a in cached] == [a.tobytes() for a in fresh]

    def test_branch_cut_rejected(self):
        # At radius 0 the rays would run along the cut; no node ever lies on it.
        for level in LEVELS:
            x = _rule_nodes(ContourSpec(), 16 << level)
            assert not np.any((x.imag == 0) & (x.real > 0)), level

    def test_poles_rejected(self):
        # At radius 2 pi the rays would start on the poles at +-2 pi i; the
        # default radius pi keeps every node pi away from 0 and +-2 pi i.
        poles = 2j * math.pi * np.arange(-1, 2)
        for level in LEVELS:
            x = _rule_nodes(ContourSpec(), 16 << level)
            assert np.min(np.abs(x[:, None] - poles[None, :])) >= math.pi - 1e-9, level


def _direct_terms(s, spec, panels_ray):
    """w f(x) from the whole node array, every factor computed at every node."""
    t, wt = _panel_nodes(0.0, spec.x_max, panels_ray)
    theta, wth = _panel_nodes(0.5 * math.pi, 1.5 * math.pi, panels_ray // 2)
    r = spec.radius
    arc = r * np.exp(1j * theta)
    x = np.concatenate([t + 1j * r, arc, t - 1j * r])
    w = np.concatenate([-wt, 1j * arc * wth, wt])
    with np.errstate(over="ignore", invalid="ignore"):
        # f stays named: `w * (bare temporary)` lets numpy multiply in place
        # with f first, which rounds differently from w * f at 256 KiB and up.
        f = np.exp((s - 1) * np.log(-x)) / (np.exp(x) - 1.0)
        return w * f


class TestHankelTermsBitForBit:
    @pytest.mark.parametrize(
        "s",
        [0.5 + 3j, -6.317462492903772 + 9.175309071832668j, 8.915923176818932 + 18.022174277744345j],
    )
    @pytest.mark.parametrize("default", [True, False])
    def test_terms_match_the_direct_expression(self, s, default):
        # The cached arc, the conjugated lower ray and the concatenated
        # log(-x) change no bit of any term at any level.
        spec = default_contour(s) if default else ContourSpec(radius=2.5, x_max=55.5)
        for level in LEVELS:
            panels = 16 << level
            with np.errstate(over="ignore", invalid="ignore"):
                got = _weighted_terms(s, spec, panels)
            assert got.tobytes() == _direct_terms(s, spec, panels).tobytes(), level

    def test_arc_cache_is_keyed_on_the_radius(self):
        s = -0.5 + 1j
        narrow, wide = (ContourSpec(radius=r, x_max=40.0) for r in (math.pi / 2, 3.0))
        _arc.cache_clear()
        wide_alone = _hankel(s, wide)
        first = _hankel(s, narrow)
        between = _hankel(s, wide)
        third = _hankel(s, narrow)
        assert repr(third) == repr(first)
        assert repr(between) == repr(wide_alone)
        assert first != between

    @pytest.mark.parametrize(
        "specs",
        [
            (ContourSpec(x_max=40.0), ContourSpec(x_max=45.0)),
            (ContourSpec(radius=math.pi / 2), ContourSpec(radius=3.0)),
        ],
        ids=["x_max", "radius"],
    )
    def test_ray_cache_is_keyed_on_the_contour(self, specs):
        # Both contours stop at level 1, so the interleaved calls read the
        # cached rays; each must give the bits of a call on empty caches.
        s = -0.5 + 1j
        cold = []
        for spec in specs:
            _ray.cache_clear()
            _arc.cache_clear()
            cold.append(repr(_hankel(s, spec)))
        _ray.cache_clear()
        warm = [repr(_hankel(s, spec)) for spec in specs + specs]
        assert warm == cold + cold
        assert cold[0] != cold[1]
        assert _ray.cache_info().hits == 4

    @pytest.mark.parametrize("panels", [16, 32])
    def test_cached_ray_is_the_upper_ray_and_read_only(self, panels):
        spec = ContourSpec()
        x, wt = _upper_ray(spec, panels)
        cached = _ray(spec, panels)
        arrays = (cached[0], *cached[1])
        fresh = (wt, *_s_free_factors(x))
        assert [a.tobytes() for a in arrays] == [a.tobytes() for a in fresh]
        assert not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError):
            cached[1][0][0] = 0.0

    def test_refusal_leaves_only_the_first_two_ray_levels_cached(self, monkeypatch):
        # The zero runs all seven levels; only the 16- and 32-panel rays stay.
        calls = []
        weighted_terms = numeric_module._weighted_terms

        def counted(s, spec, panels_ray):
            calls.append(panels_ray)
            return weighted_terms(s, spec, panels_ray)

        monkeypatch.setattr(numeric_module, "_weighted_terms", counted)
        _ray.cache_clear()
        with pytest.raises(QuadratureNotConverged):
            zeta_hankel(0.5 + 14.13j)
        assert calls == [16 << level for level in LEVELS]
        assert _ray.cache_info().currsize == 2
        assert _ray.cache_info().misses == 2


class TestZetaHankel:
    def test_minus_half(self):
        got = zeta_hankel(-0.5)
        assert abs(got - zeta_em(-0.5)) <= 1e-8
        assert got.real == pytest.approx(-0.2078862250, abs=1e-9)

    def test_minus_two_is_allowed_and_vanishes(self):
        assert abs(zeta_hankel(-2)) <= 1e-8

    def test_complex_point_matches_em(self):
        s = 0.5 + 3j
        assert abs(zeta_hankel(s) - zeta_em(s)) <= 1e-8

    def test_near_positive_integer_rejected(self):
        with pytest.raises(TooCloseToPositiveIntegerPole):
            zeta_hankel(2.05)
        with pytest.raises(TooCloseToPositiveIntegerPole):
            zeta_hankel(1.0)

    def test_orientation_via_re_s_above_one_limit(self):
        # For Re s > 1 the loop equals (e^{-pi s i} - e^{pi s i}) * integral
        # over (0, inf), i.e. -2i sin(pi s) Gamma(s) zeta(s); the sign pins
        # the traversal direction.
        s = 2.5
        loop = complex(np.sum(_weighted_terms(s, default_contour(s), 16)))
        reference = -2j * cmath.sin(math.pi * s) * gamma_complex(s) * zeta_em(s)
        assert abs(loop - reference) <= 1e-10 * abs(reference)
        assert abs(loop + reference) > abs(reference)  # flipped sign would fail

    def test_contour_is_not_a_parameter(self):
        # A caller's shorter ray gave quietly wrong values (off by 5.4e-2 at
        # 0.5+3i with x_max = 4), so the route picks its own contour.
        assert list(inspect.signature(zeta_hankel).parameters) == ["s"]
        assert "ContourSpec" not in zetaroutes.__all__

    def test_contour_independence(self):
        s = -0.5 + 1j
        a = _hankel(s, ContourSpec(radius=math.pi / 2, x_max=40.0))
        b = _hankel(s, ContourSpec(radius=3.0, x_max=40.0))
        assert abs(a - b) <= 2e-9

    def test_converged_value_matches_256_ray_panels(self):
        # A much finer fixed rule (256 ray and 128 arc panels) must agree
        # with the refinement loop's converged value.
        s = -0.5 + 1j
        spec = ContourSpec()
        converged = _hankel(s, spec)
        prefactor = -gamma_complex(1 - s) / (2j * math.pi)
        fine = prefactor * complex(np.sum(_weighted_terms(s, spec, 256)))
        assert abs(converged - fine) <= 1e-10

    def test_unreachable_tolerance_raises(self, monkeypatch):
        monkeypatch.setattr(numeric_module, "_TOL", 0.0)
        with pytest.raises(QuadratureNotConverged):
            zeta_hankel(-0.5)

    @pytest.mark.parametrize("s", [-20 + 30j, 0.5 + 40j])
    def test_round_off_refusal_costs_one_level(self, monkeypatch, s):
        calls = []
        weighted_terms = numeric_module._weighted_terms

        def counted(s, spec, panels_ray):
            calls.append(panels_ray)
            return weighted_terms(s, spec, panels_ray)

        monkeypatch.setattr(numeric_module, "_weighted_terms", counted)
        with pytest.raises(QuadratureNotConverged, match="round-off floor"):
            zeta_hankel(s)
        assert len(calls) == 1

    def test_zero_is_refused_by_the_refinement_loop(self):
        # The floor at this zero (2.1e-12) lies among those of points that
        # converge (up to 4e-12), so the floor cannot refuse it on level 0;
        # the refinement loop still does.
        with pytest.raises(QuadratureNotConverged, match="did not stabilize"):
            zeta_hankel(0.5 + 14.134725141734693j)

    def test_gate_domain_lattice_converges(self):
        # -5 <= Re s <= 4, 0 <= Im s <= 9 in steps of 0.5: every point either
        # agrees with the EM value or is refused as near a positive integer.
        for i in range(19):
            for j in range(19):
                s = complex(-5.0 + 0.5 * i, 0.5 * j)
                try:
                    got = zeta_hankel(s)
                except TooCloseToPositiveIntegerPole:
                    assert j == 0 and s.real in (1.0, 2.0, 3.0, 4.0)
                    continue
                want = zeta_em(s)
                assert abs(got - want) <= 1e-8 * max(1.0, abs(want)), s

    def test_ray_cut_grows_only_right_of_re_s_two(self):
        for s in (0.5 + 3j, 2.0, 2.0 + 9j, -5.0 + 9j):
            assert default_contour(s).x_max == max(40.0, 10.0 + 2.0 * abs(s))
        for s in (2.5, 7.4 + 16.5j, 40.0):
            spec = default_contour(s)
            a = s.real - 1.0
            drop = (spec.x_max - a) - a * math.log(spec.x_max / a)
            assert spec.x_max > max(40.0, 10.0 + 2.0 * abs(s))
            assert drop >= 35.0

    def test_worst_right_region_point(self):
        # The worst point of the benchmark's seed-0 `right` region: cut at
        # x_max = 46.2 the ray lost 3.4e-8; cut at 55.9 it misses by 8.7e-12.
        s = 7.394732803504359 + 16.507676985871694j
        reference = 1.0027694923424797 + 0.005575622076670691j  # mpmath, 30 digits
        assert abs(zeta_hankel(s) - reference) <= 1e-10

    # Exact doubles from the refinement loop's exits at levels 1, 5, 6 and 6,
    # each within 4e-12 of mpmath. The last turns into a refusal when
    # (s - 1) log(-x) is rounded the other way on the large levels.
    @pytest.mark.parametrize(
        "s, pinned",
        [
            (0.5 + 3j, "(0.5327366709742296-0.0788965134258343j)"),
            (
                -2.0162558844472898 + 11.804331877694318j,
                "(3.6231634713187004-3.368684726714251j)",
            ),
            (
                8.915923176818932 + 18.022174277744345j,
                "(1.0021008890490677+0.00010942297000789136j)",
            ),
            (
                -6.317462492903772 + 9.175309071832668j,
                "(-18.853958142835438+12.927961319294653j)",
            ),
        ],
    )
    def test_bits_are_pinned(self, s, pinned):
        assert repr(zeta_hankel(s)) == pinned


class TestInvertedContour:
    def test_real_point_small(self):
        assert inverted_contour_check(-2.5, 10**5) <= 1e-6

    def test_real_point_many_poles(self):
        assert inverted_contour_check(-1.5, 10**6) <= 1e-6

    def test_complex_point_within_prefactored_tail_bound(self):
        # At s = -0.5 - 2i the Dirichlet tail decays like N^{-1/2} and the
        # residue prefactor grows like exp(pi |Im s|/2); the measured gap
        # (~5e-3 at N = 10^6) sits inside the prefactor-aware bound.
        s = -0.5 - 2j
        diff = inverted_contour_check(s, 10**6)
        assert diff <= inverted_contour_bound(s, 10**6)
        assert diff <= 1e-2

    def test_bound_formula_on_real_axis(self):
        s = -2.5
        n_poles = 10**5
        assert inverted_contour_check(s, n_poles) <= max(
            1e-8, n_poles**s.real / abs(s.real)
        )

    def test_precondition(self):
        with pytest.raises(ValueError):
            inverted_contour_check(-0.2, 100)

    def test_bits_are_pinned(self):
        assert repr(inverted_contour_check(-2.5 + 1j, 1000)) == "5.707083430932033e-10"


# Each bound refuses what its check refuses, with the same exception class.
@pytest.mark.parametrize(
    "check, bound, args, exc",
    [
        (inverted_contour_check, inverted_contour_bound, (-2.5, 0), DomainError),
        (inverted_contour_check, inverted_contour_bound, (-2.5, -3), DomainError),
        (inverted_contour_check, inverted_contour_bound, (0.5, 10), DomainError),
        (inverted_contour_check, inverted_contour_bound, (-2.5, 10**6 + 1), OutOfValidatedRange),
        (cotangent_check, cotangent_tail_bound, (0.25, 0), ValueError),
        (cotangent_check, cotangent_tail_bound, (5, 10), ValueError),
        (cotangent_check, cotangent_tail_bound, (F(1, 4), 10**6 + 1), OutOfValidatedRange),
        (inverted_contour_check, inverted_contour_bound, (-2.5, 2.5), DomainError),
        (cotangent_check, cotangent_tail_bound, (0.25, 2.5), DomainError),
        (inverted_contour_check, inverted_contour_bound, (-1, 10), PoleAtNonpositiveInteger),
        (inverted_contour_check, inverted_contour_bound, (-3, 10), PoleAtNonpositiveInteger),
        (inverted_contour_check, inverted_contour_bound, (-1.7e308, 10), OutOfValidatedRange),
    ],
)
def test_bound_validates_its_check_domain(check, bound, args, exc):
    with pytest.raises(exc) as from_check:
        check(*args)
    with pytest.raises(exc) as from_bound:
        bound(*args)
    assert type(from_bound.value) is type(from_check.value)


class TestFuncEqResidual:
    def test_symmetric_point(self):
        assert funceq_residual(0.5) <= 1e-10

    def test_three_halves(self):
        assert funceq_residual(1.5) <= 1e-9

    def test_complex_point(self):
        assert funceq_residual(2 + 2j) <= 1e-9

    def test_near_pole_rejected(self):
        with pytest.raises(NearPole):
            funceq_residual(1.0005)
        with pytest.raises(NearPole):
            funceq_residual(1e-4)
        with pytest.raises(NearPole):
            funceq_residual(-2 + 1e-5j)


class TestCotangent:
    def test_half_partial_sums_approach_zero(self):
        # cot(pi/2) = 0; the partial sums shrink like 2x/N and stay inside
        # the tail bound
        last = None
        for n_terms in (10, 100, 1000):
            diff = cotangent_check(F(1, 2), n_terms)
            assert diff <= cotangent_tail_bound(F(1, 2), n_terms)
            if last is not None:
                assert diff < last
            last = diff

    def test_quarter(self):
        diff = cotangent_check(F(1, 4), 10**4)
        assert diff <= cotangent_tail_bound(F(1, 4), 10**4)
        assert diff <= 5.1e-5

    def test_third(self):
        diff = cotangent_check(F(1, 3), 10**6)
        assert diff <= cotangent_tail_bound(F(1, 3), 10**6)
        assert diff <= 7e-7

    def test_integer_rejected(self):
        with pytest.raises(ValueError):
            cotangent_check(F(0), 10)
        with pytest.raises(ValueError):
            cotangent_check(F(3, 2), 10)


# min(x, 1 - x) on a log lattice, four points a decade from 1e-9 to 1/2, plus
# the ends of the validated domain 1/100..99/100 and a point just outside it.
_COT_LATTICE = sorted(
    {F(f"{10 ** (k / 4 - 9):.3g}") for k in range(35)}
    | {F(1, 100), F(1, 100) - F(1, 10**20), F(1, 2)}
)


@pytest.mark.parametrize("t", _COT_LATTICE, ids=str)
def test_cotangent_lattice_passes_inside_the_domain_and_refuses_outside(t):
    # Outside the domain the round-off near 0 or 1 would fail a true identity:
    # at x = 1e-9 the residual is 1.2e-7 against a bound of 2e-10.
    for x in (t, 1 - t):
        for n_terms in (1, 2, 10, 100, 10**4, 10**6):
            if t >= F(1, 100):
                assert cotangent_check(x, n_terms) <= cotangent_tail_bound(x, n_terms)
                continue
            for fn in (cotangent_check, cotangent_tail_bound):
                with pytest.raises(OutOfValidatedRange):
                    fn(x, n_terms)
