import math
import warnings

import numpy as np
import pytest

from oracles import (
    baro_laws,
    bump_value,
    graded_gauss,
    loop_weak_residual,
    mollifier,
    mollifier_prime,
    numpy_battery,
)

import shockaudit.weakcheck as weakcheck
from shockaudit.eos import FluidState, GasModel
from shockaudit.errors import DomainError, InvalidStateError, NumericalError
from shockaudit.rh import hugoniot_solve, rh_residuals
from shockaudit.shock1d import Domain1D, PiecewiseShockSolution, stationary_shock_example
from shockaudit.weakcheck import (
    BumpTestFunction,
    SpacetimeQuadrature,
    _mollifier,
    _UniformStream,
    mass_integral,
    moving_domain_mass_rate,
    standard_battery,
    weak_residuals,
)


def perturbed_example(du=0.1):
    sol = stationary_shock_example(2.0)
    return PiecewiseShockSolution(
        model=sol.model,
        states=(FluidState(1.0, 2.0), FluidState(2.0, 1.0 + du)),
        shock_positions_t0=(0.0,),
        shock_speeds=(0.0,),
        domain=sol.domain,
        validate=False,
    )


def _special_points():
    below_one = np.nextafter(1.0, 0.0)
    return [1.0, -1.0, below_one, -below_one, 0.0, -0.0, 1e-300]


def _mollifier_inputs():
    rng = np.random.default_rng(7)
    yield "linspace", np.linspace(-1.5, 1.5, 100001)
    yield "special", np.array(_special_points())
    for v in _special_points() + [0.5, -1.5]:
        yield f"scalar{v!r}", v
    yield "column", rng.uniform(-1.2, 1.2, (64, 1))
    grid = rng.uniform(-1.2, 1.2, (64, 128))
    grid[0, :7] = _special_points()
    yield "tensor", grid
    # Wholly inside (-1, 1): the one input class with no node to discard.
    yield "inside", rng.uniform(-0.999, 0.999, (128, 128))
    yield "nan", np.array([0.5, np.nan, -0.25])
    yield "empty", np.empty(0)


MOLLIFIER_INPUTS = list(_mollifier_inputs())


class TestMollifier:
    """One-pass (m, m') against the gather/scatter reference, bit for bit."""

    @pytest.mark.parametrize("name,xi", MOLLIFIER_INPUTS, ids=[c[0] for c in MOLLIFIER_INPUTS])
    def test_bit_equal_to_gather_scatter_reference(self, name, xi):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m, m_prime = _mollifier(xi)
        for got, ref in ((m, mollifier(xi)), (m_prime, mollifier_prime(xi))):
            got = np.asarray(got)
            assert (got.shape, got.dtype) == (ref.shape, ref.dtype)
            assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("name,xi", MOLLIFIER_INPUTS, ids=[c[0] for c in MOLLIFIER_INPUTS])
    def test_zero_outside_the_open_interval(self, name, xi):
        xi = np.asarray(xi, dtype=float)
        outside = np.abs(xi) >= 1.0
        m, m_prime = _mollifier(xi)
        assert np.all(m[outside] == 0.0)
        assert np.all(m_prime[outside] == 0.0)


def gather_scatter_mollifier(xi):
    """The (m, m') pair from the gather/scatter reference, in _mollifier's calling form."""
    return mollifier(xi), mollifier_prime(xi)


class TestBumpProfile:
    def test_peak_and_support(self):
        bump = BumpTestFunction(0.3, 0.1, 0.2, 0.25)
        assert bump.support() == (0.3 - 0.2, 0.3 + 0.2, 0.1 - 0.25, 0.1 + 0.25)
        assert [float(v) for v in _mollifier(0.0)] == [1.0, 0.0]
        for edge in (-1.0, 1.0):
            assert [float(v) for v in _mollifier(edge)] == [0.0, 0.0]

    def test_derivative_matches_finite_differences(self):
        step = 1e-7
        for xi in (-0.9, -0.35, 0.2, 0.6):
            m_fd = (_mollifier(xi + step)[0] - _mollifier(xi - step)[0]) / (2.0 * step)
            assert _mollifier(xi)[1] == pytest.approx(float(m_fd), rel=1e-6)

    def test_positive_radii_required(self):
        with pytest.raises(InvalidStateError):
            BumpTestFunction(0.0, 0.0, -0.1, 0.1)


class TestWeakResidual:
    def test_on_shock_bump_vanishes(self):
        sol = stationary_shock_example(2.0)
        bump = BumpTestFunction(0.25, 0.0, 0.15, 0.3)
        assert abs(weak_residuals(sol, ("mass",), bump)[0]) < 1e-8
        assert abs(weak_residuals(sol, ("momentum",), bump)[0]) < 1e-8

    def test_bulk_bump_vanishes(self):
        sol = stationary_shock_example(2.0)
        bump = BumpTestFunction(0.25, 0.5, 0.15, 0.2)
        for comp in ("mass", "momentum", "energy"):
            assert abs(weak_residuals(sol, (comp,), bump)[0]) < 1e-12

    def test_perturbed_solution_detected(self):
        bad = perturbed_example(0.1)
        bump = BumpTestFunction(0.25, 0.0, 0.15, 0.3)
        assert abs(weak_residuals(bad, ("mass",), bump)[0]) > 1e-3

    def test_energy_residual_sees_barotropic_dissipation(self):
        # The mechanical-energy law is NOT satisfied weakly across an
        # admissible barotropic shock, so an on-shock bump must report it.
        sol = stationary_shock_example(2.0)
        bump = BumpTestFunction(0.25, 0.0, 0.15, 0.3)
        assert abs(weak_residuals(sol, ("energy",), bump)[0]) > 1e-3

    def test_residual_matches_line_integral_of_jump_defect(self):
        # For a straight shock and a violated jump condition, the weak
        # residual equals the residual times the time integral of h along
        # the shock line.
        bad = perturbed_example(0.1)
        bump = BumpTestFunction(0.25, 0.0, 0.15, 0.3)
        res = rh_residuals(bad.jumps()[0], bad.model).mass
        ts = np.linspace(0.25 - 0.15, 0.25 + 0.15, 20001)
        line = np.trapezoid(bump_value(bump, ts, np.zeros_like(ts)), ts)
        assert weak_residuals(bad, ("mass",), bump)[0] == pytest.approx(res * line, rel=1e-6)

    def test_support_must_stay_inside_domain(self):
        sol = stationary_shock_example(2.0)
        with pytest.raises(DomainError):
            weak_residuals(sol, ("mass",), BumpTestFunction(0.25, 0.9, 0.15, 0.3))

    def test_unknown_component_rejected(self):
        sol = stationary_shock_example(2.0)
        with pytest.raises(InvalidStateError):
            weak_residuals(sol, ("vorticity",), BumpTestFunction(0.25, 0.0, 0.1, 0.1))

    def test_linearity_in_the_region_constants(self):
        # With the shocks and the bump fixed, the quadrature is a fixed
        # linear functional of the per-region (U, F), so the mass residual of
        # a combination of candidates is the combination of their residuals
        # to roundoff.
        mov = moving_barotropic()
        bump = BumpTestFunction(0.3, mov.shock_position(0, 0.3) + 0.1, 0.15, 0.3)
        rng = np.random.default_rng(41)

        def candidate(rho, rho_u):
            return PiecewiseShockSolution(
                model=mov.model,
                states=tuple(FluidState(r, m / r) for r, m in zip(rho, rho_u)),
                shock_positions_t0=mov.shock_positions_t0,
                shock_speeds=mov.shock_speeds,
                domain=mov.domain,
                validate=False,
            )

        for _ in range(10):
            rho1, rho2 = rng.uniform(0.5, 2.5, size=(2, 2))
            mom1, mom2 = rng.uniform(-1.5, 1.5, size=(2, 2))
            a, c = rng.uniform(0.1, 2.0, size=2)
            combined = weak_residuals(candidate(a * rho1 + c * rho2, a * mom1 + c * mom2), ("mass",), bump)[0]
            separate = (
                a * weak_residuals(candidate(rho1, mom1), ("mass",), bump)[0]
                + c * weak_residuals(candidate(rho2, mom2), ("mass",), bump)[0]
            )
            assert combined == pytest.approx(separate, rel=1e-12, abs=1e-12)

    def test_order_doubling_converges(self):
        sol = stationary_shock_example(2.0)
        bump = BumpTestFunction(0.3, 0.11, 0.1, 0.12)
        floor = 1e-12
        prev = None
        for order in (2, 4, 8, 16):
            quad = SpacetimeQuadrature(order=order, panels=4)
            r = abs(weak_residuals(sol, ("mass",), bump, quad)[0])
            if prev is not None:
                assert r <= max(prev / 10.0, floor)
            prev = r

    def test_moving_shock_alignment(self):
        model = GasModel.barotropic(K=1.0, gamma=1.4)
        left = FluidState(1.0, 0.0)
        jump = hugoniot_solve(left, 2.0, model)
        sol = PiecewiseShockSolution(
            model=model,
            states=(left, jump.right),
            shock_positions_t0=(0.0,),
            shock_speeds=(jump.v_s,),
            domain=Domain1D(-2.5, 1.0),
        )
        bump = BumpTestFunction(0.3, sol.shock_position(0, 0.3), 0.15, 0.3)
        assert abs(weak_residuals(sol, ("mass",), bump)[0]) < 1e-8
        assert abs(weak_residuals(sol, ("momentum",), bump)[0]) < 1e-8


def moving_barotropic():
    """A barotropic shock moving at its Hugoniot speed, downstream u off by 0.1."""
    model = GasModel.barotropic(K=1.0, gamma=1.4)
    left = FluidState(1.0, 0.0)
    jump = hugoniot_solve(left, 2.0, model)
    return PiecewiseShockSolution(
        model=model,
        states=(left, FluidState(2.0, jump.right.u + 0.1)),
        shock_positions_t0=(0.0,),
        shock_speeds=(jump.v_s,),
        domain=Domain1D(-2.5, 1.5),
        validate=False,
    )


def two_shock():
    return PiecewiseShockSolution(
        model=GasModel.barotropic(K=0.8, gamma=1.6),
        states=(FluidState(1.0, 0.3), FluidState(1.6, -0.2), FluidState(2.4, 0.5)),
        shock_positions_t0=(-0.15, 0.2),
        shock_speeds=(-0.6, 0.9),
        domain=Domain1D(-2.0, 2.0),
        validate=False,
    )


def fixed_and_moving():
    """A stationary shock and a moving one in one box: a fixed break next to a moving one."""
    return PiecewiseShockSolution(
        model=GasModel.barotropic(K=0.8, gamma=1.6),
        states=(FluidState(1.0, 0.3), FluidState(1.6, -0.2), FluidState(2.4, 0.5)),
        shock_positions_t0=(-0.1, 0.05),
        shock_speeds=(0.0, 0.7),
        domain=Domain1D(-2.0, 2.0),
        validate=False,
    )


def material_domain():
    return PiecewiseShockSolution(
        model=GasModel.barotropic(K=2.0 / 3.0, gamma=2.0),
        states=(FluidState(1.0, 2.0), FluidState(2.0, 1.1)),
        shock_positions_t0=(0.0,),
        shock_speeds=(0.0,),
        domain=Domain1D(-1.0, 1.0, "material"),
        validate=False,
    )


def _slab_cases():
    mov = moving_barotropic()
    t_mid = 0.3
    on_shock = mov.shock_position(0, t_mid)
    yield "stationary", perturbed_example(0.1), BumpTestFunction(0.25, 0.0, 0.15, 0.3)
    # The shock runs through the box and out of its right edge mid-support.
    yield "moving", mov, BumpTestFunction(t_mid, on_shock + 0.1, 0.15, 0.3)
    yield "two-shock", two_shock(), BumpTestFunction(0.3, 0.1, 0.2, 0.45)
    yield "material", material_domain(), BumpTestFunction(0.25, 0.05, 0.1, 0.3)
    # Unaligned: the shock crosses no x-edge of the box, so the only slab
    # spans the whole support while the shock crosses the box midpoint.
    yield "unaligned-moving", mov, BumpTestFunction(t_mid, on_shock, 0.15, 0.3)
    # The bumps that the sum-of-bumps cases added on their union boxes.
    yield "moving-on-shock", mov, BumpTestFunction(0.25, mov.shock_position(0, 0.25), 0.1, 0.2)
    yield "moving-behind-shock", mov, BumpTestFunction(0.35, mov.shock_position(0, 0.35) - 0.1, 0.12, 0.25)
    yield "two-shock-left", two_shock(), BumpTestFunction(0.3, -0.1, 0.15, 0.3)
    yield "two-shock-right", two_shock(), BumpTestFunction(0.25, 0.25, 0.1, 0.2)
    # The moving shock leaves the box mid-support; the stationary one stays.
    yield "fixed-and-moving", fixed_and_moving(), BumpTestFunction(0.3, 0.05, 0.2, 0.3)


SLAB_CASES = list(_slab_cases())


class TestSlabQuadratureAgainstLoop:
    """The per-slab tensor quadrature against a per-time-node loop oracle."""

    @pytest.mark.parametrize("order,panels", [(2, 2), (4, 4), (8, 16)])
    @pytest.mark.parametrize("name,sol,h", SLAB_CASES, ids=[c[0] for c in SLAB_CASES])
    def test_matches_loop_oracle(self, name, sol, h, order, panels):
        quad = SpacetimeQuadrature(order=order, panels=panels)
        K, gamma = sol.model.K, sol.model.gamma
        comps = ("mass", "momentum", "energy")
        laws = [baro_laws(K, gamma, s.rho, s.u) for s in sol.states]
        # One oracle pass for all components: (U, F) per region as vectors.
        regions = [tuple(np.array(v) for v in zip(*(law[c] for c in comps))) for law in laws]
        refs = loop_weak_residual(regions, sol.shock_positions_t0, sol.shock_speeds, h, order, panels)
        shared = weak_residuals(sol, comps, h, quad)
        for i, comp in enumerate(comps):
            scale = max(max(abs(U[i]), abs(F[i])) for U, F in regions)
            alone = weak_residuals(sol, (comp,), h, quad)[0]
            assert abs(alone - refs[i]) <= 1e-13 * scale
            # The all-laws accumulation sums each law exactly as a lone law.
            assert shared[i] == alone

    @pytest.mark.parametrize("name,sol,h", SLAB_CASES, ids=[c[0] for c in SLAB_CASES])
    def test_residuals_bit_equal_to_gather_scatter_mollifier(self, name, sol, h, monkeypatch):
        comps = ("mass", "momentum", "energy")
        got = weak_residuals(sol, comps, h)
        monkeypatch.setattr(weakcheck, "_mollifier", gather_scatter_mollifier)
        assert got == weak_residuals(sol, comps, h)

    @pytest.mark.parametrize("sol", [perturbed_example(0.1), moving_barotropic(), two_shock()], ids=["stationary", "moving", "two-shock"])
    def test_battery_bit_equal_to_gather_scatter_mollifier(self, sol, monkeypatch):
        comps = ("mass", "momentum", "energy")
        bumps = standard_battery(sol, count=10, seed=5)
        got = [weak_residuals(sol, comps, bump) for bump in bumps]
        monkeypatch.setattr(weakcheck, "_mollifier", gather_scatter_mollifier)
        assert got == [weak_residuals(sol, comps, bump) for bump in bumps]

    def test_unaligned_region_changes_inside_the_slab(self):
        # Guard on the case itself: the shock really crosses the box
        # midpoint during the support, so the two regions both contribute.
        _, mov, bump = SLAB_CASES[4]
        t_lo, t_hi, x_lo, x_hi = bump.support()
        centre = 0.5 * (x_lo + x_hi)
        assert mov.region_index(t_lo, centre) != mov.region_index(t_hi, centre)


class MollifierCount:
    """Stands in for weakcheck._mollifier and counts its calls and the nodes passed to it."""

    def __init__(self):
        self.calls = 0
        self.nodes = 0

    def __call__(self, xi):
        self.calls += 1
        self.nodes += np.size(xi)
        return _mollifier(xi)


@pytest.fixture
def count(monkeypatch):
    counter = MollifierCount()
    monkeypatch.setattr(weakcheck, "_mollifier", counter)
    return counter


LAW_SETS = [("mass", "momentum"), ("momentum", "energy"), ("mass", "momentum", "energy"), ("energy", "mass")]


class TestSharedEvaluation:
    """weak_residuals shares one set of h evaluations across the requested laws."""

    @pytest.mark.parametrize("laws", LAW_SETS, ids="+".join)
    @pytest.mark.parametrize("name,sol,h", SLAB_CASES, ids=[c[0] for c in SLAB_CASES])
    def test_equals_single_law_residuals_bit_for_bit(self, name, sol, h, laws):
        quad = SpacetimeQuadrature(order=4, panels=4)
        shared = weak_residuals(sol, laws, h, quad)
        assert shared == [weak_residuals(sol, (law,), h, quad)[0] for law in laws]

    @pytest.mark.parametrize("laws", LAW_SETS, ids="+".join)
    def test_evaluates_the_nodes_of_one_single_law_call(self, laws, count):
        _, sol, h = SLAB_CASES[2]
        weak_residuals(sol, ("mass",), h)
        single = (count.calls, count.nodes)
        count.calls = count.nodes = 0
        weak_residuals(sol, laws, h)
        assert single[1] > 0
        assert (count.calls, count.nodes) == single

    def test_unknown_component_rejected_before_any_evaluation(self, count):
        sol = stationary_shock_example(2.0)
        with pytest.raises(InvalidStateError, match="vorticity"):
            weak_residuals(sol, ("mass", "momentum", "vorticity"), BumpTestFunction(0.25, 0.0, 0.1, 0.1))
        assert count.calls == 0

    def test_support_checked_before_any_evaluation(self, count):
        sol = stationary_shock_example(2.0)
        with pytest.raises(DomainError):
            weak_residuals(sol, ("mass", "momentum"), BumpTestFunction(0.25, 0.9, 0.15, 0.3))
        assert count.calls == 0

    def test_non_finite_residual_names_its_component(self):
        # rho u is finite but (rho u) u overflows: mass stays finite while
        # the momentum and energy residuals do not.
        state = FluidState(1e300, 1e5)
        sol = PiecewiseShockSolution(
            model=GasModel.barotropic(K=1.0, gamma=1.01),
            states=(state, state),
            shock_positions_t0=(0.0,),
            shock_speeds=(0.0,),
            validate=False,
        )
        bump = BumpTestFunction(0.25, 0.0, 0.1, 0.2)
        with np.errstate(invalid="ignore", over="ignore"):
            assert math.isfinite(weak_residuals(sol, ("mass",), bump)[0])
            with pytest.raises(NumericalError, match="momentum"):
                weak_residuals(sol, ("mass", "momentum", "energy"), bump)


NODE_COUNT_CASES = [
    # (case, nodes): per slab, 128 time nodes, then 128 x-nodes for each
    # sub-region between fixed breaks and 128 x 128 for each one next to a
    # moving shock.
    ("stationary", 128 + 2 * 128),
    # The shock is inside the box until it leaves through the right edge.
    ("moving", (128 + 2 * 128 * 128) + (128 + 128)),
    # Both shocks inside, then one leaves, then the other.
    ("two-shock", (128 + 3 * 128 * 128) + (128 + 2 * 128 * 128) + (128 + 128)),
    # Left of the stationary shock is fixed on both sides; the moving shock leaves.
    ("fixed-and-moving", (128 + 128 + 2 * 128 * 128) + (128 + 2 * 128)),
]


class TestNodeCount:
    """weak_residuals evaluates each bump axis once per slab and sub-region."""

    @pytest.mark.parametrize("name,expected", NODE_COUNT_CASES, ids=[c[0] for c in NODE_COUNT_CASES])
    def test_mollifier_nodes_per_bump(self, name, expected, count):
        _, sol, h = next(case for case in SLAB_CASES if case[0] == name)
        quad = SpacetimeQuadrature(order=8, panels=16)
        weak_residuals(sol, ("mass", "momentum", "energy"), h, quad)
        assert count.nodes == expected
        # The cached reference rule on [0, 1] that every slab and sub-region scales.
        nodes, weights = quad.rule()
        assert nodes.shape == weights.shape == (128,)
        assert not nodes.flags.writeable and not weights.flags.writeable


class TestQuadratureGuards:
    @pytest.mark.parametrize("field", ["order", "panels"])
    @pytest.mark.parametrize("value", [0, -1, 2.7, 8.0, True, "8"])
    def test_sizes_must_be_positive_integers(self, field, value):
        with pytest.raises(InvalidStateError):
            SpacetimeQuadrature(**{field: value})

    def test_rule_computed_once_per_order_and_panels(self):
        quad = SpacetimeQuadrature(order=5, panels=2)
        assert quad.rule() is quad.rule()
        for got, expected in zip(quad.rule(), graded_gauss(0.0, 1.0, 5, 2)):
            np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-15)
        assert quad == SpacetimeQuadrature(order=5, panels=2)
        # Equal sizes share one rule across instances, whatever their integer type.
        other = SpacetimeQuadrature(order=np.int64(5), panels=np.int32(2))
        assert all(a is b for a, b in zip(other.rule(), quad.rule()))
        for different in (SpacetimeQuadrature(order=6, panels=2), SpacetimeQuadrature(order=5, panels=3)):
            assert different.rule()[0] is not quad.rule()[0]

    def test_shared_rule_is_read_only(self):
        for arr in SpacetimeQuadrature(order=5).rule():
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_numpy_integers_accepted(self):
        assert SpacetimeQuadrature(order=np.int64(4), panels=np.int32(2)).order == 4

    def test_non_finite_residual_is_numerical_error(self):
        # A finite state whose momentum flux overflows to inf; inf times the
        # bump derivative (zero and of both signs) sums to NaN.
        state = FluidState(1e300, 1e10)
        sol = PiecewiseShockSolution(
            model=GasModel.barotropic(K=1.0, gamma=1.01),
            states=(state, state),
            shock_positions_t0=(0.0,),
            shock_speeds=(0.0,),
            validate=False,
        )
        with pytest.raises(NumericalError), np.errstate(invalid="ignore"):
            weak_residuals(sol, ("momentum",), BumpTestFunction(0.25, 0.0, 0.1, 0.2))


STREAM_SEEDS = [0, 1, 7, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 3, 2**96 + 5, 2**128 + 99, 2**200 + 12345,
                np.uint64(2**64 - 1), np.uint64(5), np.int64(0), np.int64(2**63 - 1)]


def _interleaved_draws(rng, n=40):
    """random() and uniform() alternately, the uniform spans of growing width."""
    out = []
    for k in range(n):
        if k % 3 == 0:
            out.append(rng.random())
        else:
            low = 0.1 * k - 1.3
            out.append(rng.uniform(low, low + 0.37 * k))
    return out


class TestUniformStream:
    """The pure-Python battery stream against numpy's default_rng(seed), bit for bit."""

    @pytest.mark.parametrize("seed", STREAM_SEEDS, ids=[repr(s) for s in STREAM_SEEDS])
    def test_bit_equal_to_numpy_default_rng(self, seed):
        got = _interleaved_draws(_UniformStream(seed))
        ref = _interleaved_draws(np.random.default_rng(seed))
        assert [type(v) for v in got] == [float] * len(got)
        assert np.array(got).tobytes() == np.array(ref).tobytes()

    def test_pinned_first_draws(self):
        # Literal values, so the battery stays fixed even if numpy's
        # Generator stream changes in a later release.
        pinned = {
            0: (0.6369616873214543, 0.2697867137638703, -0.018361059042552214),
            3: (0.08564916714362436, 0.2368105065960997, 0.012050978608255877),
            2**64 + 3: (0.7243886900316061, 0.4103625418095803, 0.00026187540934061865),
        }
        for seed, expected in pinned.items():
            rng = _UniformStream(seed)
            assert (rng.random(), rng.random(), rng.uniform(-0.02, 0.02)) == expected

    @pytest.mark.parametrize("low,high", [(-1e308, 1e308), (0.0, math.inf), (math.nan, 1.0)])
    def test_non_finite_span_is_numpy_overflow_error(self, low, high):
        with pytest.raises(OverflowError) as ref:
            np.random.default_rng(0).uniform(low, high)
        with pytest.raises(OverflowError) as got:
            _UniformStream(0).uniform(low, high)
        assert str(got.value) == str(ref.value) == "high - low range exceeds valid bounds"

    def test_property_bit_equal_over_seeds(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=150, deadline=None)
        @hypothesis.given(seed=st.integers(min_value=0, max_value=2**160), n=st.integers(1, 12))
        def check(seed, n):
            assert _interleaved_draws(_UniformStream(seed), n) == _interleaved_draws(np.random.default_rng(seed), n)

        check()


def two_shock_solution():
    # Diverging shocks: a horizon from the past to infinity, so every bump fits.
    sol = stationary_shock_example(2.0)
    return PiecewiseShockSolution(
        model=sol.model,
        states=(FluidState(1.0, 2.0), FluidState(2.0, 1.0), FluidState(1.5, 0.5)),
        shock_positions_t0=(-0.3, 0.2),
        shock_speeds=(0.0, 0.4),
        domain=Domain1D(-1.0, 1.5),
        validate=False,
    )


class TestStandardBattery:
    @pytest.mark.parametrize("kind", ["fixed", "material", "two-shock"])
    def test_equal_to_numpy_battery(self, kind):
        sol = two_shock_solution() if kind == "two-shock" else stationary_shock_example(2.0, kind)
        for seed in (0, 1, 5, 2**40 + 1, np.int64(9)):
            assert standard_battery(sol, count=20, seed=seed) == numpy_battery(sol, count=20, seed=seed)

    def test_short_horizon_is_domain_error(self):
        # Two shocks that collide at t ~ 0.082, shorter than any drawn time
        # support (at least 2.1 * 0.06); numpy's uniform raised a bare
        # ValueError here.
        sol = PiecewiseShockSolution(
            model=GasModel.barotropic(K=2.0 / 3.0, gamma=2.0),
            states=(FluidState(1.0, 2.0), FluidState(2.0, 1.0), FluidState(4.0, -0.41421356237309515)),
            shock_positions_t0=(-0.1, 0.05),
            shock_speeds=(0.0, -1.8284271247461903),
        )
        with pytest.raises(DomainError, match="validity horizon"):
            standard_battery(sol, count=4, seed=0)
        with pytest.raises(ValueError):
            numpy_battery(sol, count=4, seed=0)

    def test_collapsed_material_domain_is_domain_error(self):
        # Material endpoints move at 2 and 1, so over a long enough time
        # support no interval stays inside the domain; with seed 3 the first
        # bump fits and the second, a bulk bump, does not.
        sol = PiecewiseShockSolution(
            model=GasModel.barotropic(K=2.0 / 3.0, gamma=2.0),
            states=(FluidState(1.0, 2.0), FluidState(2.0, 1.0)),
            shock_positions_t0=(0.0,),
            shock_speeds=(1.5,),
            domain=Domain1D(-0.2, 0.2, "material"),
            validate=False,
        )
        with pytest.raises(DomainError, match="stays inside the solution domain"):
            standard_battery(sol, count=4, seed=3)
        with pytest.raises(ValueError):
            numpy_battery(sol, count=4, seed=3)

    def test_deterministic_given_seed(self):
        sol = stationary_shock_example(2.0)
        a = standard_battery(sol, count=20, seed=3)
        b = standard_battery(sol, count=20, seed=3)
        assert a == b

    def test_count_and_containment(self):
        # A material domain moves with the fluid, so each box must fit the
        # domain at both of its time edges, not only at its centre time.
        for motion in ("fixed", "material"):
            sol = stationary_shock_example(2.0, motion)
            for seed in range(5):
                bumps = standard_battery(sol, count=20, seed=seed)
                assert len(bumps) == 20
                for bump in bumps:
                    t_lo, t_hi, x_lo, x_hi = bump.support()
                    assert sol.horizon[0] <= t_lo and t_hi <= sol.horizon[1]
                    for t in (t_lo, t_hi):
                        a, b = sol.endpoints(t)
                        assert a <= x_lo and x_hi <= b
                    if motion == "fixed":
                        assert -1.0 <= x_lo and x_hi <= 1.0


class TestMovingDomainMassRate:
    def test_valid_solution_conserves_mass(self):
        sol = stationary_shock_example(2.0)
        rate = moving_domain_mass_rate(sol, lambda t: -0.8 + 2.0 * t, lambda t: 0.8 + t)
        assert abs(rate) < 1e-8

    def test_single_region_window(self):
        sol = stationary_shock_example(2.0)
        rate = moving_domain_mass_rate(sol, lambda t: 0.2 + t, lambda t: 0.8 + t)
        assert abs(rate) < 1e-10

    def test_detects_injected_violation(self):
        # u_right + 0.05 breaks the mass condition by 0.1; the material
        # window picks up exactly minus the residual.
        bad = perturbed_example(0.05)
        res = rh_residuals(bad.jumps()[0], bad.model).mass
        assert res == pytest.approx(-0.1, abs=1e-14)
        rate = moving_domain_mass_rate(
            bad, lambda t: -0.8 + 2.0 * t, lambda t: 0.8 + (1.0 + 0.05) * t
        )
        assert rate == pytest.approx(0.1, abs=1e-6)
        assert rate == pytest.approx(-res, abs=1e-6)

    def test_endpoint_speed_must_match_fluid(self):
        sol = stationary_shock_example(2.0)
        with pytest.raises(InvalidStateError):
            moving_domain_mass_rate(sol, lambda t: -0.8 + 0.5 * t, lambda t: 0.8 + t)

    def test_endpoint_shock_collision_rejected(self):
        sol = stationary_shock_example(2.0)
        with pytest.raises(DomainError):
            moving_domain_mass_rate(sol, lambda t: 2.0 * t, lambda t: 0.8 + t)

    def test_mass_integral_exact(self):
        sol = stationary_shock_example(2.0)
        assert mass_integral(sol, -0.5, 0.5, 0.0) == pytest.approx(0.5 * 1.0 + 0.5 * 2.0)


class TestEquivalence:
    def test_weak_residuals_iff_jump_conditions(self):
        # Two-sided check on random two-state candidates: the weak residuals
        # vanish for every bump exactly when the jump conditions hold.
        rng = np.random.default_rng(43)
        quad = SpacetimeQuadrature()
        for _ in range(50):
            gamma = rng.uniform(1.15, 2.2)
            K = rng.uniform(0.4, 1.5)
            model = GasModel.barotropic(K=K, gamma=gamma)
            left = FluidState(rng.uniform(0.5, 2.0), rng.uniform(-1.5, 1.5))
            rho_r = left.rho * rng.uniform(1.1, 2.2)
            jump = hugoniot_solve(left, rho_r, model)
            u_r, v_s = jump.right.u, jump.v_s
            satisfies = rng.random() < 0.5
            if not satisfies:
                u_r += rng.uniform(0.05, 0.3) * rng.choice([-1.0, 1.0])
            span = 4.0 + 2.0 * abs(v_s)
            sol = PiecewiseShockSolution(
                model=model,
                states=(left, FluidState(rho_r, u_r)),
                shock_positions_t0=(0.0,),
                shock_speeds=(v_s,),
                domain=Domain1D(-span, span),
                validate=False,
            )
            res = rh_residuals(sol.jumps()[0], model)
            bumps = standard_battery(sol, count=6, seed=int(rng.integers(0, 1000)))
            worst = max(
                abs(weak_residuals(sol, (comp,), b, quad)[0])
                for comp in ("mass", "momentum")
                for b in bumps
            )
            if satisfies:
                assert res.conserved_max_abs() < 1e-10
                assert worst < 1e-8
            else:
                assert res.conserved_max_abs() > 1e-3
                assert worst > 1e-6
