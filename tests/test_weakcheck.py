import math

import numpy as np
import pytest

from oracles import baro_laws, loop_weak_residual

from shockaudit.eos import FluidState, GasModel
from shockaudit.errors import DomainError, InvalidStateError, NumericalError
from shockaudit.rh import hugoniot_solve_barotropic, rh_residuals
from shockaudit.shock1d import Domain1D, PiecewiseShockSolution, stationary_shock_example
from shockaudit.weakcheck import (
    BumpTestFunction,
    SpacetimeQuadrature,
    mass_integral,
    moving_domain_mass_rate,
    standard_battery,
    weak_residual,
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


class TestBumpProfile:
    def test_peak_and_support(self):
        bump = BumpTestFunction(0.3, 0.1, 0.2, 0.25)
        assert bump.value(0.3, 0.1) == pytest.approx(1.0)
        assert bump.value(0.3, 0.1 + 0.25) == 0.0
        assert bump.value(0.3 + 0.2, 0.1) == 0.0
        assert bump.dt(0.3 - 0.2, 0.1) == 0.0
        assert bump.dx(0.3, 0.1 + 0.25) == 0.0

    def test_derivatives_match_finite_differences(self):
        bump = BumpTestFunction(0.3, 0.1, 0.2, 0.25)
        h = 1e-7
        t, x = 0.35, 0.02
        dt_fd = (bump.value(t + h, x) - bump.value(t - h, x)) / (2.0 * h)
        dx_fd = (bump.value(t, x + h) - bump.value(t, x - h)) / (2.0 * h)
        assert bump.dt(t, x) == pytest.approx(float(dt_fd), rel=1e-6)
        assert bump.dx(t, x) == pytest.approx(float(dx_fd), rel=1e-6)

    def test_positive_radii_required(self):
        with pytest.raises(InvalidStateError):
            BumpTestFunction(0.0, 0.0, -0.1, 0.1)


class TestWeakResidual:
    def test_on_shock_bump_vanishes(self):
        sol = stationary_shock_example(2.0)
        bump = BumpTestFunction(0.25, 0.0, 0.15, 0.3)
        assert abs(weak_residual(sol, "mass", bump)) < 1e-8
        assert abs(weak_residual(sol, "momentum", bump)) < 1e-8

    def test_bulk_bump_vanishes(self):
        sol = stationary_shock_example(2.0)
        bump = BumpTestFunction(0.25, 0.5, 0.15, 0.2)
        for comp in ("mass", "momentum", "energy"):
            assert abs(weak_residual(sol, comp, bump)) < 1e-12

    def test_perturbed_solution_detected(self):
        bad = perturbed_example(0.1)
        bump = BumpTestFunction(0.25, 0.0, 0.15, 0.3)
        assert abs(weak_residual(bad, "mass", bump)) > 1e-3

    def test_energy_residual_sees_barotropic_dissipation(self):
        # The mechanical-energy law is NOT satisfied weakly across an
        # admissible barotropic shock, so an on-shock bump must report it.
        sol = stationary_shock_example(2.0)
        bump = BumpTestFunction(0.25, 0.0, 0.15, 0.3)
        assert abs(weak_residual(sol, "energy", bump)) > 1e-3

    def test_residual_matches_line_integral_of_jump_defect(self):
        # For a straight shock and a violated jump condition, the weak
        # residual equals the residual times the time integral of h along
        # the shock line.
        bad = perturbed_example(0.1)
        bump = BumpTestFunction(0.25, 0.0, 0.15, 0.3)
        res = rh_residuals(bad.jumps()[0], bad.model).mass
        ts = np.linspace(0.25 - 0.15, 0.25 + 0.15, 20001)
        line = np.trapezoid(bump.value(ts, np.zeros_like(ts)), ts)
        assert weak_residual(bad, "mass", bump) == pytest.approx(res * line, rel=1e-6)

    def test_support_must_stay_inside_domain(self):
        sol = stationary_shock_example(2.0)
        with pytest.raises(DomainError):
            weak_residual(sol, "mass", BumpTestFunction(0.25, 0.9, 0.15, 0.3))

    def test_unknown_component_rejected(self):
        sol = stationary_shock_example(2.0)
        with pytest.raises(InvalidStateError):
            weak_residual(sol, "vorticity", BumpTestFunction(0.25, 0.0, 0.1, 0.1))

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

            def dt(self, t, x):
                return self.coeff * self.fn.dt(t, x)

            def dx(self, t, x):
                return self.coeff * self.fn.dx(t, x)

        class Combination(OnBox):
            def __init__(self, parts, box):
                self.parts = parts
                self.box = box

            def support(self):
                return self.box

            def value(self, t, x):
                return sum(p.value(t, x) for p in self.parts)

            def dt(self, t, x):
                return sum(p.dt(t, x) for p in self.parts)

            def dx(self, t, x):
                return sum(p.dx(t, x) for p in self.parts)

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
            combined = weak_residual(sol, "mass", Combination(parts, union))
            separate = a * weak_residual(sol, "mass", OnBox(b1, union)) + c * weak_residual(
                sol, "mass", OnBox(b2, union)
            )
            assert combined == pytest.approx(separate, rel=1e-12, abs=1e-12)

    def test_order_doubling_converges(self):
        sol = stationary_shock_example(2.0)
        bump = BumpTestFunction(0.3, 0.11, 0.1, 0.12)
        floor = 1e-12
        prev = None
        for order in (2, 4, 8, 16):
            quad = SpacetimeQuadrature(order=order, panels=4)
            r = abs(weak_residual(sol, "mass", bump, quad))
            if prev is not None:
                assert r <= max(prev / 10.0, floor)
            prev = r

    def test_moving_shock_alignment(self):
        model = GasModel.barotropic(K=1.0, gamma=1.4)
        left = FluidState(1.0, 0.0)
        u_r, v_s = hugoniot_solve_barotropic(left, 2.0, model)
        sol = PiecewiseShockSolution(
            model=model,
            states=(left, FluidState(2.0, u_r)),
            shock_positions_t0=(0.0,),
            shock_speeds=(v_s,),
            domain=Domain1D(-2.5, 1.0),
        )
        bump = BumpTestFunction(0.3, sol.shock_position(0, 0.3), 0.15, 0.3)
        assert abs(weak_residual(sol, "mass", bump)) < 1e-8
        assert abs(weak_residual(sol, "momentum", bump)) < 1e-8


class BumpSum:
    """Sum of bumps on their union box, exposing only dt, dx and support."""

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

    def dt(self, t, x):
        return sum(b.dt(t, x) for b in self.bumps)

    def dx(self, t, x):
        return sum(b.dx(t, x) for b in self.bumps)


def moving_barotropic():
    """A barotropic shock moving at its Hugoniot speed, downstream u off by 0.1."""
    model = GasModel.barotropic(K=1.0, gamma=1.4)
    left = FluidState(1.0, 0.0)
    u_r, v_s = hugoniot_solve_barotropic(left, 2.0, model)
    return PiecewiseShockSolution(
        model=model,
        states=(left, FluidState(2.0, u_r + 0.1)),
        shock_positions_t0=(0.0,),
        shock_speeds=(v_s,),
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
            assert abs(weak_residual(sol, comp, h, quad) - refs[i]) <= 1e-13 * scale
            assert abs(shared[i] - refs[i]) <= 1e-13 * scale

    def test_unaligned_region_changes_inside_the_slab(self):
        # Guard on the case itself: the shock really crosses the box
        # midpoint during the support, so the two regions both contribute.
        _, mov, bump = SLAB_CASES[4]
        t_lo, t_hi, x_lo, x_hi = bump.support()
        centre = 0.5 * (x_lo + x_hi)
        assert mov.region_index(t_lo, centre) != mov.region_index(t_hi, centre)


class CountingTestFunction:
    """Wraps a test function and counts the points at which dt and dx are evaluated."""

    def __init__(self, h):
        self.h = h
        self.points = 0
        self.calls = 0

    def support(self):
        return self.h.support()

    def _count(self, t, x):
        self.calls += 1
        self.points += np.broadcast(t, x).size

    def dt(self, t, x):
        self._count(t, x)
        return self.h.dt(t, x)

    def dx(self, t, x):
        self._count(t, x)
        return self.h.dx(t, x)


LAW_SETS = [("mass", "momentum"), ("momentum", "energy"), ("mass", "momentum", "energy"), ("energy", "mass")]


class TestSharedEvaluation:
    """weak_residuals shares one set of h evaluations across the requested laws."""

    @pytest.mark.parametrize("laws", LAW_SETS, ids="+".join)
    @pytest.mark.parametrize("name,sol,h", SLAB_CASES, ids=[c[0] for c in SLAB_CASES])
    def test_equals_single_law_residuals_bit_for_bit(self, name, sol, h, laws):
        quad = SpacetimeQuadrature(order=4, panels=4)
        shared = weak_residuals(sol, laws, h, quad)
        assert shared == [weak_residual(sol, law, h, quad) for law in laws]

    @pytest.mark.parametrize("laws", LAW_SETS, ids="+".join)
    def test_evaluates_the_points_of_one_single_law_call(self, laws):
        _, sol, h = SLAB_CASES[2]
        single, shared = CountingTestFunction(h), CountingTestFunction(h)
        weak_residual(sol, "mass", single)
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
            weak_residual(sol, "momentum", BumpTestFunction(0.25, 0.0, 0.1, 0.2))


class TestStandardBattery:
    def test_deterministic_given_seed(self):
        sol = stationary_shock_example(2.0)
        a = standard_battery(sol, count=20, seed=3)
        b = standard_battery(sol, count=20, seed=3)
        assert a == b

    def test_count_and_containment(self):
        sol = stationary_shock_example(2.0)
        bumps = standard_battery(sol, count=20, seed=0)
        assert len(bumps) == 20
        for bump in bumps:
            t_lo, t_hi, x_lo, x_hi = bump.support()
            assert sol.horizon[0] <= t_lo and t_hi <= sol.horizon[1]
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
            u_r, v_s = hugoniot_solve_barotropic(left, rho_r, model)
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
                abs(weak_residual(sol, comp, b, quad))
                for comp in ("mass", "momentum")
                for b in bumps
            )
            if satisfies:
                assert res.conserved_max_abs() < 1e-10
                assert worst < 1e-8
            else:
                assert res.conserved_max_abs() > 1e-3
                assert worst > 1e-6
