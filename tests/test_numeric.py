import cmath
import functools
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
    ROUTE_TOL,
    _RADIUS,
    DomainError,
    NearPole,
    OutOfValidatedRange,
    QuadratureNotConverged,
    TooCloseToPositiveIntegerPole,
    _arc_nodes,
    _dirichlet_cutoff,
    _factors,
    _hankel,
    _integrand,
    _ladder,
    _panels,
    _ray_nodes,
    _ray_rungs,
    _rung_end,
    _weighted_terms,
    cotangent_check,
    funceq_residual,
    inverted_contour_check,
    zeta_em,
    zeta_hankel,
)
from zetaroutes.zeta_exact import zeta_even_positive, zeta_nonpositive

from test_scorecard import grid_points

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

    @pytest.mark.parametrize("s", [2.62e11 + 5j, 2**53, 1e300, 1.7e308])
    def test_is_one_where_its_corrections_underflow(self, s):
        # From Re s ~ 2.611e11 the rising product s (s+1) ... (s+26) of the
        # corrections overflows while N^{-s-1} underflows to 0: they stop at
        # the 0, and zeta(s) = 1 to double precision.
        assert zeta_em(s) == 1

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
            (0.5 + 1e4j, "(-0.3393738026261218-0.03709150598176066j)"),
        ],
    )
    def test_bits_are_pinned(self, s, pinned):
        assert repr(zeta_em(s)) == pinned

    def test_cutoff_is_sized_by_the_remainder_at_re_s_nonnegative(self):
        # N = max(30, ceil(|Im s|/2)) for Re s >= 0.
        assert _dirichlet_cutoff(0.5 + 1e4j) == 5000
        assert _dirichlet_cutoff(3 - 1e4j) == 5000
        assert _dirichlet_cutoff(0.5 + 60j) == 30
        assert _dirichlet_cutoff(0.0 + 61j) == 31
        assert _dirichlet_cutoff(0.5 + 9999j) == 5000

    @pytest.mark.parametrize(
        "s, n",
        [(-0.5 + 1e4j, 20000), (-0.5 + 15j, 30), (-3 + 10j, 20), (-10.5, 4), (-26, 2),
         (-4.01 + 34.02j, 69), (-20 + 1e4j, 20000), (-1e-9, 3)],
    )
    def test_cutoff_at_re_s_negative_keeps_its_balance_and_cap(self, s, n):
        assert _dirichlet_cutoff(complex(s)) == n

    def test_im_s_beyond_1e4_is_refused(self):
        zeta_em(0.5 + 1e4j)
        zeta_em(-5 - 1e4j)
        for s in (0.5 + 10001j, 0.5 - 10001j, 0.25 + 16611.5j, 3 + 3e5j, -5 + 1e6j):
            with pytest.raises(OutOfValidatedRange, match="Dirichlet cutoff"):
                zeta_em(s)

    @pytest.mark.parametrize("re", [0.0, 0.5, 1.5, 3.0])
    def test_meets_route_tol_up_to_its_bound(self, re):
        # Edwards' remainder sizes N = |Im s|/2; the phase round-off of the
        # terms grows with |Im s|, and 1e4 is where the validated band ends.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            for t in np.geomspace(15, 1e4, 6):
                ref = complex(mpmath.zeta(mpmath.mpc(re, t)))
                err = abs(zeta_em(complex(re, t)) - ref) / max(1.0, abs(ref))
                assert err <= ROUTE_TOL, (re, t, err)


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
    no_arc = _factors(np.empty(0, dtype=complex), None)[1:]
    return _integrand(s, _factors(np.asarray(x, dtype=complex), None)[1:], no_arc)[: len(x)]


def _rule_nodes(rungs, level, radius):
    """Every node the rule evaluates: the upper ray, the arc, the lower ray."""
    x, _ = _ray_nodes(radius, level, rungs)
    arc, _ = _arc_nodes(radius, 8 << level)
    return np.concatenate([x, arc, np.conj(x)])


# The rungs of the longest ray zeta_hankel reads: a longer one is refused unread.
LONGEST = numeric_module._LADDER_RUNGS


def _lattice():
    """Re s = -176..176 in steps of 4, Im s = 0..592 in steps of 8: the
    points where Gamma(1-s) is finite and nonzero."""
    for re in range(-176, 177, 4):
        for im in range(0, 600, 8):
            s = complex(re, im)
            try:
                if gamma_complex(1 - s) != 0:
                    yield s
            except DomainError:
                pass


def _empty_ladder(monkeypatch):
    """An empty ladder cache in place of the module's; returns the list of
    the (radius, level) of every entry it lays, in order."""
    laid = []
    lay = numeric_module._ladder.__wrapped__

    def counted(radius, level):
        laid.append((radius, level))
        return lay(radius, level)

    monkeypatch.setattr(numeric_module, "_ladder", functools.cache(counted))
    return laid


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
        arc, w = _arc_nodes(math.pi, 8 << level)
        cached, _ = _ladder(math.pi, level)
        fresh = _factors(arc, w)
        assert [a.tobytes() for a in cached] == [a.tobytes() for a in fresh]

    def test_branch_cut_rejected(self):
        # At radius 0 the rays would run along the cut; no node ever lies on it.
        for level in LEVELS:
            x = _rule_nodes(LONGEST, level, _RADIUS)
            assert not np.any((x.imag == 0) & (x.real > 0)), level

    def test_poles_rejected(self):
        # At radius 2 pi the rays would start on the poles at +-2 pi i; the
        # default radius pi keeps every node pi away from 0 and +-2 pi i.
        poles = 2j * math.pi * np.arange(-1, 2)
        for level in LEVELS:
            x = _rule_nodes(LONGEST, level, _RADIUS)
            assert np.min(np.abs(x[:, None] - poles[None, :])) >= math.pi - 1e-9, level


def _direct_terms(s, rungs, level, radius):
    """w f(x) from the whole node array, every factor computed at every node.
    The ray is laid out rung by rung: [0, 40] in 16 * 2^level equal panels,
    then [40 * 1.21^k, 40 * 1.21^(k+1)] in 2^level for k < rungs."""
    n = 1 << level
    edges = [np.linspace(0.0, 40.0, 16 * n + 1)]
    for k in range(rungs):
        edges.append(np.linspace(40.0 * 1.21**k, 40.0 * 1.21 ** (k + 1), n + 1)[1:])
    t, wt = _panels(np.concatenate(edges))
    theta, wth = _panels(np.linspace(0.5 * math.pi, 1.5 * math.pi, 8 * n + 1))
    arc = radius * np.exp(1j * theta)
    x = np.concatenate([t + 1j * radius, arc, t - 1j * radius])
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
        # The cached arc, the ladder's ray prefix, the conjugated lower ray
        # and the concatenated log(-x) change no bit of any term at any level.
        rungs, radius = (_ray_rungs(s), _RADIUS) if default else (5, 2.5)
        for level in LEVELS:
            with np.errstate(over="ignore", invalid="ignore"):
                got = _weighted_terms(s, rungs, level, radius)
            assert got.tobytes() == _direct_terms(s, rungs, level, radius).tobytes(), level

    def test_arc_cache_is_keyed_on_the_radius(self, monkeypatch):
        # The arc and the ray ladder are cached per radius and level: calls
        # at two radii, interleaved, give the bits of calls on empty caches.
        s = -0.5 + 1j
        narrow, wide = math.pi / 2, 3.0
        laid = _empty_ladder(monkeypatch)
        wide_alone = _hankel(s, 0, wide)
        first = _hankel(s, 0, narrow)
        between = _hankel(s, 0, wide)
        third = _hankel(s, 0, narrow)
        assert repr(third) == repr(first)
        assert repr(between) == repr(wide_alone)
        assert first != between
        assert sorted(laid) == [(r, level) for r in (math.pi / 2, 3.0) for level in (0, 1)]

    @pytest.mark.parametrize("panels", [16, 32])
    def test_cached_ray_is_the_upper_ray_and_read_only(self, panels):
        # 16 and 32 panels on [0, 40]: levels 0 and 1, the two where nearly
        # every converging point stops.
        level = panels.bit_length() - 5
        arc, ray = _ladder(math.pi, level)
        fresh = _factors(*_ray_nodes(math.pi, level, LONGEST))
        assert [a.tobytes() for a in ray] == [a.tobytes() for a in fresh]
        assert not any(a.flags.writeable for a in (*arc, *ray))
        with pytest.raises(ValueError):
            ray[1][0] = 0.0

    @pytest.mark.parametrize("level", LEVELS)
    def test_every_contour_reads_a_prefix_of_the_ladder(self, level):
        # The ladder holds the bits of a ray laid whole to 15 rungs, and a
        # contour of K rungs reads the first 16 (16 + K) 2^level of them,
        # the nodes of a ray laid to K.
        _, ray = _ladder(math.pi, level)
        x, _ = _ray_nodes(math.pi, level, LONGEST)
        assert len(ray[0]) == len(x) == (16 + 15) * 16 << level
        for rungs in (0, 1, 5, 14):
            t, _ = _ray_nodes(math.pi, level, rungs)
            assert len(t) == (16 + rungs) * 16 << level
            assert t.tobytes() == x[: len(t)].tobytes()

    def test_concurrent_cold_reads_get_the_bits_of_one_build(self, monkeypatch, concurrently):
        # Threads that read an empty ladder cache at once may each lay the
        # entry; every one of them gets the bits of a single build.
        lay = numeric_module._ladder.__wrapped__
        whole = [a.tobytes() for part in lay(math.pi, 1) for a in part]
        for _ in range(20):
            monkeypatch.setattr(numeric_module, "_ladder", functools.cache(lay))
            entries = concurrently(lambda _: numeric_module._ladder(math.pi, 1), range(8))
            entries.append(numeric_module._ladder(math.pi, 1))
            for entry in entries:
                assert [a.tobytes() for part in entry for a in part] == whole

    @pytest.mark.parametrize(
        "specs",
        [
            ((0, math.pi), (2, math.pi)),
            ((0, math.pi / 2), (0, 3.0)),
        ],
        ids=["x_max", "radius"],
    )
    def test_ray_cache_is_keyed_on_the_contour(self, monkeypatch, specs):
        # Contours of 0 and 2 rungs read prefixes of the same ladder, contours
        # of two radii read two ladders; in any order, each call gives the
        # bits of a call on an empty cache.
        s = -0.5 + 1j
        cold = []
        for spec in specs:
            _empty_ladder(monkeypatch)
            cold.append(repr(_hankel(s, *spec)))
        laid = _empty_ladder(monkeypatch)
        warm = [repr(_hankel(s, *spec)) for spec in specs[::-1] + specs]
        assert warm == cold[::-1] + cold
        assert cold[0] != cold[1]
        radii = sorted({radius for _, radius in specs})
        assert sorted(laid) == [(r, level) for r in radii for level in (0, 1)]

    @pytest.mark.parametrize(
        "s, exc",
        [
            (0.5 + 1e6j, QuadratureNotConverged),
            (1e300j, QuadratureNotConverged),
            (-160, OutOfValidatedRange),
            (-1e300, OutOfValidatedRange),
        ],
    )
    def test_extreme_s_is_refused_before_any_ladder_grows(self, monkeypatch, s, exc):
        # Gamma(1-s) underflows to 0 at the first two and overflows at the
        # others; _hankel refuses there before it reads a ladder, though
        # _ray_rungs(s) asks for 16 (past the ladder), 16, 12 and 16 rungs.
        laid = _empty_ladder(monkeypatch)
        with pytest.raises(exc):
            zeta_hankel(s)
        assert laid == []

    def test_the_ladder_ends_where_e_to_the_x_overflows(self):
        # Every node of rung 15 lies below ln(DBL_MAX), where e^x - 1 is
        # finite, and at every level some node of rung 16 lies above it.
        ln_max = math.log(sys.float_info.max)
        for level in LEVELS:
            ray, w = _ray_nodes(math.pi, level, LONGEST)
            longer, _ = _ray_nodes(math.pi, level, LONGEST + 1)
            assert ray.real.max() < ln_max < longer.real.max(), level
            assert np.all(np.isfinite(_factors(ray, w)[2])), level

    @pytest.mark.parametrize("radius", [math.pi, 2.5])
    @pytest.mark.parametrize("s", [0.5 + 3j, -0.5 + 1j, -6.3 + 9.2j, 8.9 + 18.0j])
    def test_a_ray_past_the_ladder_has_no_finite_sum(self, s, radius):
        # On the direct expression, a contour of 16 rungs sums to a value
        # that is not finite at every level; _weighted_terms refuses it with
        # the bytes of the refusal of that sum.
        rungs = LONGEST + 1
        for level in LEVELS:
            assert not cmath.isfinite(complex(np.sum(_direct_terms(s, rungs, level, radius)))), level
            with pytest.raises(QuadratureNotConverged) as refused:
                _weighted_terms(s, rungs, level, radius)
            assert str(refused.value) == f"contour integral at s = {s} is not finite"

    def test_every_contour_past_15_rungs_is_refused_unread(self, monkeypatch):
        # Where Gamma(1-s) is finite and nonzero, every contour past 15 rungs
        # is refused as not finite, and none reads a ladder.
        laid = _empty_ladder(monkeypatch)
        past = [s for s in _lattice() if _ray_rungs(s) > LONGEST]
        s = -113.25 + 498.36j  # near the edge where Gamma(1-s) underflows
        for s in (*past, s):
            with pytest.raises(QuadratureNotConverged) as refused:
                zeta_hankel(s)
            assert str(refused.value) == f"contour integral at s = {s} is not finite"
        assert len(past) == 578
        assert laid == []


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
        loop = complex(np.sum(_weighted_terms(s, _ray_rungs(s), 0, _RADIUS)))
        reference = -2j * cmath.sin(math.pi * s) * gamma_complex(s) * zeta_em(s)
        assert abs(loop - reference) <= 1e-10 * abs(reference)
        assert abs(loop + reference) > abs(reference)  # flipped sign would fail

    def test_contour_is_not_a_parameter(self):
        # A caller's shorter ray gave quietly wrong values (off by 5.4e-2 at
        # 0.5+3i with x_max = 4), so the route picks its own contour.
        assert list(inspect.signature(zeta_hankel).parameters) == ["s"]

    def test_converged_value_matches_256_ray_panels(self):
        # A much finer fixed rule (level 4: 256 ray and 128 arc panels) must
        # agree with the refinement loop's converged value.
        s = -0.5 + 1j
        converged = _hankel(s, 0, _RADIUS)
        prefactor = -gamma_complex(1 - s) / (2j * math.pi)
        fine = prefactor * complex(np.sum(_weighted_terms(s, 0, 4, _RADIUS)))
        assert abs(converged - fine) <= 1e-10

    def test_unreachable_tolerance_raises(self, monkeypatch):
        monkeypatch.setattr(numeric_module, "_TOL", 0.0)
        monkeypatch.setattr(numeric_module, "_FLOOR_FACTOR", 0.0)
        with pytest.raises(QuadratureNotConverged):
            zeta_hankel(-0.5)

    @pytest.mark.parametrize("s", [-20 + 30j, 0.5 + 40j])
    def test_round_off_refusal_costs_one_level(self, hankel_levels, s):
        with pytest.raises(QuadratureNotConverged, match="round-off floor"):
            zeta_hankel(s)
        assert len(hankel_levels) == 1

    def test_zero_returns_within_three_levels(self, hankel_levels):
        # The level differences at this zero stay near 2e-12, about twice its
        # floor F = 2.1e-12, so it converges to max(_TOL, 4F), not to _TOL.
        assert abs(zeta_hankel(0.5 + 14.134725141734693j)) <= 1e-11
        assert len(hankel_levels) <= 3

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

    def test_ray_cut_covers_the_upper_rays_growth(self):
        # The cut is the least rung end 40 * 1.21^K, K <= 15, past
        # 10 + 2|s| that lies e^-(35 + pi |Im s|/2) below the ray integrand's
        # peak, at x = max(Re s - 1, 1): on the real axis right of Re s = 2,
        # and with |Im s| anywhere; 16, past the ladder, where no K holds.
        # Short of that, it keeps 40.
        def holds(s, k):
            x = 40.0 * 1.21**k
            a = s.real - 1.0
            p = max(a, 1.0)
            need = 35.0 + 0.5 * math.pi * abs(s.imag)
            return x >= 10.0 + 2.0 * abs(s) and (x - p) - a * math.log(x / p) >= need

        ends = range(LONGEST + 1)
        assert [_rung_end(k) for k in ends] == [40.0 * 1.21**k for k in ends]
        for s in (0.5 + 3j, 0.5 + 3.7j, 2.0, -5.0, -5.0 + 9j, -15.0):
            assert _ray_rungs(s) == 0
        moved = (2.5, 7.4 + 16.5j, 40.0, 0.5 + 14.13j, 1.66 + 13.52j, -1.28 + 16.22j, -16.0)
        assert all(_ray_rungs(s) > 0 for s in moved)
        for s in (*moved, *_lattice()):
            rungs = _ray_rungs(s)
            if rungs in ends:
                assert holds(s, rungs) and (rungs == 0 or not holds(s, rungs - 1)), s
            else:
                assert rungs == LONGEST + 1 and not any(holds(s, k) for k in ends), s

    def test_worst_right_region_point(self):
        # A seed-0 `right` point whose ray needs a long cut: at x_max = 48.4
        # (one rung) it loses 5.3e-9; the default 85.7 (four) misses by 8.3e-13.
        s = 7.394732803504359 + 16.507676985871694j
        reference = 1.0027694923424797 + 0.005575622076670691j  # mpmath, 30 digits
        assert abs(zeta_hankel(s) - reference) <= 1e-10

    # Exact doubles from the refinement loop's exits, each at level 1 and
    # within 2.7e-12 of mpmath.
    @pytest.mark.parametrize(
        "s, pinned",
        [
            (0.5 + 3j, "(0.5327366709742296-0.0788965134258343j)"),
            (
                -2.0162558844472898 + 11.804331877694318j,
                "(3.623163471320925-3.368684726713022j)",
            ),
            (
                8.915923176818932 + 18.022174277744345j,
                "(1.002100889048639+0.00010942297573095228j)",
            ),
            (
                -6.317462492903772 + 9.175309071832668j,
                "(-18.853958142838014+12.92796131930257j)",
            ),
        ],
    )
    def test_bits_are_pinned(self, s, pinned):
        assert repr(zeta_hankel(s)) == pinned


class TestInvertedContour:
    def test_real_point_small(self):
        assert inverted_contour_check(-2.5, 10**5)[0] <= 1e-6

    def test_real_point_many_poles(self):
        assert inverted_contour_check(-1.5, 10**6)[0] <= 1e-6

    def test_complex_point_within_prefactored_tail_bound(self):
        # At s = -0.5 - 2i the Dirichlet tail decays like N^{-1/2} and the
        # residue prefactor grows like exp(pi |Im s|/2); the measured gap
        # (~5e-3 at N = 10^6) sits inside the prefactor-aware bound.
        s = -0.5 - 2j
        diff, bound = inverted_contour_check(s, 10**6)
        assert diff <= bound
        assert diff <= 1e-2
        prefactor = (2 * math.pi) ** s * 2 * cmath.sin(math.pi * s / 2)
        assert bound == max(1e-8, abs(prefactor) * (10**6) ** s.real / abs(s.real))

    def test_bound_formula_on_real_axis(self):
        s = -2.5
        n_poles = 10**5
        assert inverted_contour_check(s, n_poles)[0] <= max(
            1e-8, n_poles**s.real / abs(s.real)
        )

    def test_precondition(self):
        with pytest.raises(ValueError):
            inverted_contour_check(-0.2, 100)

    def test_bits_are_pinned(self):
        assert repr(inverted_contour_check(-2.5 + 1j, 1000)[0]) == "5.707083430932033e-10"


# Each check's one domain test refuses for its residual and its bound alike.
@pytest.mark.parametrize(
    "check, args, exc",
    [
        (inverted_contour_check, (-2.5, 0), DomainError),
        (inverted_contour_check, (-2.5, -3), DomainError),
        (inverted_contour_check, (0.5, 10), DomainError),
        (inverted_contour_check, (-2.5, 10**6 + 1), OutOfValidatedRange),
        (cotangent_check, (0.25, 0), ValueError),
        (cotangent_check, (5, 10), ValueError),
        (cotangent_check, (F(1, 4), 10**6 + 1), OutOfValidatedRange),
        (inverted_contour_check, (-2.5, 2.5), DomainError),
        (cotangent_check, (0.25, 2.5), DomainError),
        (inverted_contour_check, (-1, 10), PoleAtNonpositiveInteger),
        (inverted_contour_check, (-3, 10), PoleAtNonpositiveInteger),
        (inverted_contour_check, (-1.7e308, 10), OutOfValidatedRange),
        (inverted_contour_check, (-27.5, 10), OutOfValidatedRange),  # zeta_em's Re s <= -27
        (inverted_contour_check, (-999999.5, 10), OutOfValidatedRange),  # Gamma(1 - s) overflows
    ],
)
def test_check_refuses_outside_its_domain(check, args, exc):
    with pytest.raises(exc):
        check(*args)


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
            diff, bound = cotangent_check(F(1, 2), n_terms)
            assert diff <= bound
            if last is not None:
                assert diff < last
            last = diff

    def test_quarter(self):
        diff, bound = cotangent_check(F(1, 4), 10**4)
        assert diff <= bound
        assert diff <= 5.1e-5

    def test_third(self):
        diff, bound = cotangent_check(F(1, 3), 10**6)
        assert diff <= bound
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
                diff, bound = cotangent_check(x, n_terms)
                assert diff <= bound
                continue
            with pytest.raises(OutOfValidatedRange):
                cotangent_check(x, n_terms)
