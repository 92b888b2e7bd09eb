import math
import warnings

import numpy as np
import pytest

from oracles import baro_laws, loop_weak_residual, mollifier, mollifier_prime

from shockaudit.eos import FluidState, GasModel
from shockaudit.errors import DomainError, InvalidStateError, NumericalError
from shockaudit.rh import hugoniot_solve, rh_residuals
from shockaudit.shock1d import Domain1D, PiecewiseShockSolution, stationary_shock_example
from shockaudit.weakcheck import (
    BumpTestFunction,
    SpacetimeQuadrature,
    _mollifier,
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


class GatherScatterBump:
    """A bump's gradient from the reference mollifier pair: (m'(tau)/rt) m(xi) and (m(tau) m'(xi))/rx."""

    def __init__(self, bump):
        self.bump = bump

    def support(self):
        return self.bump.support()

    def grad(self, t, x):
        b = self.bump
        tau = (np.asarray(t) - b.t0) / b.rt
        xi = (np.asarray(x) - b.x0) / b.rx
        return mollifier_prime(tau) / b.rt * mollifier(xi), mollifier(tau) * mollifier_prime(xi) / b.rx


class TestBumpProfile:
    def test_peak_and_support(self):
        bump = BumpTestFunction(0.3, 0.1, 0.2, 0.25)
        assert bump.value(0.3, 0.1) == pytest.approx(1.0)
        assert bump.value(0.3, 0.1 + 0.25) == 0.0
        assert bump.value(0.3 + 0.2, 0.1) == 0.0
        assert bump.grad(0.3 - 0.2, 0.1)[0] == 0.0
        assert bump.grad(0.3, 0.1 + 0.25)[1] == 0.0

    def test_derivatives_match_finite_differences(self):
        bump = BumpTestFunction(0.3, 0.1, 0.2, 0.25)
        h = 1e-7
        t, x = 0.35, 0.02
        dt_fd = (bump.value(t + h, x) - bump.value(t - h, x)) / (2.0 * h)
        dx_fd = (bump.value(t, x + h) - bump.value(t, x - h)) / (2.0 * h)
        h_t, h_x = bump.grad(t, x)
        assert h_t == pytest.approx(float(dt_fd), rel=1e-6)
        assert h_x == pytest.approx(float(dx_fd), rel=1e-6)

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
        line = np.trapezoid(bump.value(ts, np.zeros_like(ts)), ts)
        assert weak_residuals(bad, ("mass",), bump)[0] == pytest.approx(res * line, rel=1e-6)

    def test_support_must_stay_inside_domain(self):
        sol = stationary_shock_example(2.0)
        with pytest.raises(DomainError):
            weak_residuals(sol, ("mass",), BumpTestFunction(0.25, 0.9, 0.15, 0.3))

    def test_unknown_component_rejected(self):
        sol = stationary_shock_example(2.0)
        with pytest.raises(InvalidStateError):
            weak_residuals(sol, ("vorticity",), BumpTestFunction(0.25, 0.0, 0.1, 0.1))

    def test_linearity_in_test_function(self):
        # Evaluated over one shared support box the quadrature is a fixed
        # linear functional, so linearity in h must hold to roundoff.
        sol = perturbed_example(0.2)

        class OnBox:
            def __init__(self, fn, box, coeff=1.0):
                self.fn = fn
                self.box = box
                self.coeff = coeff

            def support(self):
                return self.box

            def value(self, t, x):
                return self.coeff * self.fn.value(t, x)

            def grad(self, t, x):
                h_t, h_x = self.fn.grad(t, x)
                return self.coeff * h_t, self.coeff * h_x

        class Combination(OnBox):
            def __init__(self, parts, box):
                self.parts = parts
                self.box = box

            def support(self):
                return self.box

            def value(self, t, x):
                return sum(p.value(t, x) for p in self.parts)

            def grad(self, t, x):
                grads = [p.grad(t, x) for p in self.parts]
                return sum(g[0] for g in grads), sum(g[1] for g in grads)

        b1 = BumpTestFunction(0.2, -0.1, 0.1, 0.2)
        b2 = BumpTestFunction(0.3, 0.15, 0.12, 0.18)
        boxes = [b1.support(), b2.support()]
        union = (
            min(b[0] for b in boxes),
            max(b[1] for b in boxes),
            min(b[2] for b in boxes),
            max(b[3] for b in boxes),
        )
        rng = np.random.default_rng(41)
        for _ in range(10):
            a, c = rng.uniform(-2, 2, size=2)
            parts = [OnBox(b1, union, a), OnBox(b2, union, c)]
            combined = weak_residuals(sol, ("mass",), Combination(parts, union))[0]
            separate = (
                a * weak_residuals(sol, ("mass",), OnBox(b1, union))[0]
                + c * weak_residuals(sol, ("mass",), OnBox(b2, union))[0]
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


class BumpSum:
    """Sum of bumps on their union box, exposing only grad and support."""

    def __init__(self, *bumps):
        boxes = [b.support() for b in bumps]
        self.bumps = bumps
        self.box = (
            min(b[0] for b in boxes),
            max(b[1] for b in boxes),
            min(b[2] for b in boxes),
            max(b[3] for b in boxes),
        )

    def support(self):
        return self.box

    def grad(self, t, x):
        grads = [b.grad(t, x) for b in self.bumps]
        return sum(g[0] for g in grads), sum(g[1] for g in grads)


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
    yield "sum-of-bumps", mov, BumpSum(
        BumpTestFunction(0.25, mov.shock_position(0, 0.25), 0.1, 0.2),
        BumpTestFunction(0.35, mov.shock_position(0, 0.35) - 0.1, 0.12, 0.25),
    )
    yield "sum-of-bumps-two-shock", two_shock(), BumpSum(
        BumpTestFunction(0.3, -0.1, 0.15, 0.3), BumpTestFunction(0.25, 0.25, 0.1, 0.2)
    )


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
            assert abs(weak_residuals(sol, (comp,), h, quad)[0] - refs[i]) <= 1e-13 * scale
            assert abs(shared[i] - refs[i]) <= 1e-13 * scale

    @pytest.mark.parametrize("name,sol,h", SLAB_CASES[:5], ids=[c[0] for c in SLAB_CASES[:5]])
    def test_residuals_bit_equal_to_gather_scatter_gradient(self, name, sol, h):
        comps = ("mass", "momentum", "energy")
        assert weak_residuals(sol, comps, h) == weak_residuals(sol, comps, GatherScatterBump(h))

    @pytest.mark.parametrize("sol", [perturbed_example(0.1), moving_barotropic(), two_shock()], ids=["stationary", "moving", "two-shock"])
    def test_battery_bit_equal_to_gather_scatter_gradient(self, sol):
        comps = ("mass", "momentum", "energy")
        for bump in standard_battery(sol, count=10, seed=5):
            assert weak_residuals(sol, comps, bump) == weak_residuals(sol, comps, GatherScatterBump(bump))

    def test_unaligned_region_changes_inside_the_slab(self):
        # Guard on the case itself: the shock really crosses the box
        # midpoint during the support, so the two regions both contribute.
        _, mov, bump = SLAB_CASES[4]
        t_lo, t_hi, x_lo, x_hi = bump.support()
        centre = 0.5 * (x_lo + x_hi)
        assert mov.region_index(t_lo, centre) != mov.region_index(t_hi, centre)


class CountingTestFunction:
    """Wraps a test function and counts the points at which grad is evaluated."""

    def __init__(self, h):
        self.h = h
        self.points = 0
        self.calls = 0

    def support(self):
        return self.h.support()

    def grad(self, t, x):
        self.calls += 1
        self.points += np.broadcast(t, x).size
        return self.h.grad(t, x)


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
    def test_evaluates_the_points_of_one_single_law_call(self, laws):
        _, sol, h = SLAB_CASES[2]
        single, shared = CountingTestFunction(h), CountingTestFunction(h)
        weak_residuals(sol, ("mass",), single)
        weak_residuals(sol, laws, shared)
        assert single.points > 0
        assert (shared.calls, shared.points) == (single.calls, single.points)

    def test_unknown_component_rejected_before_any_evaluation(self):
        sol = stationary_shock_example(2.0)
        h = CountingTestFunction(BumpTestFunction(0.25, 0.0, 0.1, 0.1))
        with pytest.raises(InvalidStateError, match="vorticity"):
            weak_residuals(sol, ("mass", "momentum", "vorticity"), h)
        assert h.calls == 0

    def test_support_checked_before_any_evaluation(self):
        sol = stationary_shock_example(2.0)
        h = CountingTestFunction(BumpTestFunction(0.25, 0.9, 0.15, 0.3))
        with pytest.raises(DomainError):
            weak_residuals(sol, ("mass", "momentum"), h)
        assert h.calls == 0

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


class TestQuadratureGuards:
    @pytest.mark.parametrize("field", ["order", "panels"])
    @pytest.mark.parametrize("value", [0, -1, 2.7, 8.0, True, "8"])
    def test_sizes_must_be_positive_integers(self, field, value):
        with pytest.raises(InvalidStateError):
            SpacetimeQuadrature(**{field: value})

    def test_nodes_computed_once_per_rule(self):
        quad = SpacetimeQuadrature(order=5, panels=2)
        assert quad.nodes() is quad.nodes()
        for got, expected in zip(quad.nodes(), np.polynomial.legendre.leggauss(5)):
            assert np.array_equal(got, expected)
        assert quad == SpacetimeQuadrature(order=5, panels=2)
        # Equal orders share one rule across instances, whatever the panels.
        for other in (SpacetimeQuadrature(order=5, panels=7), SpacetimeQuadrature(order=np.int64(5))):
            assert all(a is b for a, b in zip(other.nodes(), quad.nodes()))
        assert SpacetimeQuadrature(order=6).nodes()[0] is not quad.nodes()[0]

    def test_shared_nodes_are_read_only(self):
        for arr in SpacetimeQuadrature(order=5).nodes():
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


class TestStandardBattery:
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
