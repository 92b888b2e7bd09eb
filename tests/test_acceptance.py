"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, none deferred.
"""

import time

import numpy as np
import pytest

from shockaudit.eos import FluidState, GasModel, specific_entropy
from shockaudit.fv_solver import Grid1D, ShockTrack, field_from_solution, measure_shock, simulate
from shockaudit.lagrangian_maps import (
    augmented_energy_rate,
    augmented_jump_residual,
    calibrated_flow_map,
)
from shockaudit.rh import hugoniot_solve, rh_residuals
from shockaudit.shock1d import (
    Domain1D,
    PiecewiseShockSolution,
    energy_rate,
    length_rate,
    stationary_shock_example,
    volume_potential_mismatch,
)
from shockaudit.weakcheck import (
    BumpTestFunction,
    moving_domain_mass_rate,
    standard_battery,
    weak_residuals,
)

GAMMAS = [1.2, 1.4, 5.0 / 3.0, 2.0, 3.0]


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def desk_scale_shock(rng, motion="fixed"):
    gamma = rng.uniform(1.15, 2.2)
    K = rng.uniform(0.4, 1.5)
    model = GasModel.barotropic(K=K, gamma=gamma)
    left = FluidState(rng.uniform(0.5, 2.0), rng.uniform(-1.5, 1.5))
    ratio = rng.uniform(1.1, 2.2) if rng.random() < 0.5 else rng.uniform(0.45, 0.9)
    rho_r = left.rho * ratio
    jump = hugoniot_solve(left, rho_r, model)
    span = 4.0 + 2.0 * abs(jump.v_s)
    return PiecewiseShockSolution(
        model=model,
        states=(left, jump.right),
        shock_positions_t0=(0.0,),
        shock_speeds=(jump.v_s,),
        domain=Domain1D(-span, span, motion),
    )


def test_criterion_1_reference_reconstruction():
    t0 = time.monotonic()
    worst = 0.0
    for gamma in GAMMAS:
        sol = stationary_shock_example(gamma)
        assert sol.model.K == 2.0 / (2.0 ** gamma - 1.0)
        assert sol.shock_speeds[0] == 0.0
        res = rh_residuals(sol.jumps()[0], sol.model)
        worst = max(worst, res.conserved_max_abs())
    elapsed = time.monotonic() - t0
    ok = worst < 1e-12 and elapsed < 1.0
    report(1, ok, f"K closed form exact, v_s = 0, max residual {worst:.2e} ({elapsed:.2f} s)")


def test_criterion_2_energy_rate():
    t0 = time.monotonic()
    at_two = energy_rate(stationary_shock_example(2.0))
    worst = abs(at_two + 1.0 / 3.0)
    for gamma in GAMMAS + list(np.arange(1.1, 3.0001, 0.1)):
        gamma = float(gamma)
        closed = -3.0 + 2.0 * gamma / (gamma - 1.0) - 2.0 * gamma / (
            (gamma - 1.0) * (2.0 ** gamma - 1.0)
        )
        worst = max(worst, abs(energy_rate(stationary_shock_example(gamma)) - closed))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-12 and elapsed < 1.0
    report(2, ok, f"dE/dt = -1/3 at gamma 2; sweep matches closed form to {worst:.2e}")


def test_criterion_3_length_rate():
    worst = max(
        abs(length_rate(stationary_shock_example(float(g))) + 1.0)
        for g in GAMMAS + list(np.arange(1.1, 3.0001, 0.1))
    )
    ok = worst < 1e-12
    report(3, ok, f"length rate = -1 across gamma, worst deviation {worst:.2e}")


def test_criterion_4_volume_mismatch():
    _, _, gap_two = volume_potential_mismatch(stationary_shock_example(2.0))
    min_gap = min(
        volume_potential_mismatch(stationary_shock_example(float(g)))[2]
        for g in np.arange(1.1, 3.0001, 0.1)
    )
    ok = abs(gap_two - 2.0 / 3.0) < 1e-12 and min_gap > 0.1
    report(4, ok, f"gap(2) = 2/3 to {abs(gap_two - 2.0/3.0):.2e}, min gap {min_gap:.3f} > 0.1")


def test_criterion_5_calibration_closure():
    rng = np.random.default_rng(101)
    worst_aug = 0.0
    worst_cons = 0.0
    for _ in range(50):
        sol = desk_scale_shock(rng)
        fmap = calibrated_flow_map(sol)
        worst_aug = max(worst_aug, abs(augmented_energy_rate(sol, fmap)))
        worst_cons = max(worst_cons, abs(augmented_jump_residual(sol, fmap)))
    ok = worst_aug < 1e-12 and worst_cons < 1e-12
    report(5, ok, f"augmented rate {worst_aug:.2e}, conserved-combination residual {worst_cons:.2e}")


def test_criterion_6_full_euler_energy_conservation():
    t0 = time.monotonic()
    rng = np.random.default_rng(103)
    worst_energy = 0.0
    entropy_ok = True
    for _ in range(50):
        gamma = rng.uniform(1.15, 2.2)
        model = GasModel.ideal_gas(gamma=gamma, e_ref=rng.uniform(0.5, 2.0), c_v=rng.uniform(0.5, 2.0))
        rho_l = rng.uniform(0.4, 2.5)
        left = FluidState(rho_l, rng.uniform(-1.5, 1.5), rho_l * rng.uniform(-0.4, 0.4))
        limit = (gamma + 1.0) / (gamma - 1.0)
        rho_r = rho_l * rng.uniform(1.1, min(2.8, 0.85 * limit))
        jump = hugoniot_solve(left, rho_r, model)
        right = jump.right
        worst_energy = max(worst_energy, abs(rh_residuals(jump, model).energy))
        flux = left.rho * (left.u - jump.v_s)
        upstream, downstream = (left, right) if flux > 0 else (right, left)
        entropy_ok = entropy_ok and (
            specific_entropy(downstream) >= specific_entropy(upstream) - 1e-12
        )
    elapsed = time.monotonic() - t0
    ok = worst_energy < 1e-10 and entropy_ok and elapsed < 5.0
    report(6, ok, f"energy residual {worst_energy:.2e}, entropy ordering holds ({elapsed:.2f} s)")


def test_criterion_7_oracle_triangle():
    t0 = time.monotonic()
    sol = stationary_shock_example(2.0)
    grid = Grid1D(-1.0, 1.0, 3200)
    track = ShockTrack(grid)
    result = simulate(sol.model, grid, field_from_solution(sol.model, grid, sol), 0.5, observers=[track])
    meas = measure_shock(sol.model, grid, result.field, trajectory=track.points)
    drift = float(np.max(result.conservation_drift))
    residual_norm = meas.residual.conserved_max_abs()
    position_drift = abs(meas.position - 0.0)
    elapsed = time.monotonic() - t0
    ok = (
        residual_norm < 5e-3
        and position_drift < 2.0 * grid.dx
        and drift < 1e-10
        and elapsed < 60.0
    )
    report(
        7,
        ok,
        f"captured residual {residual_norm:.2e} < 5e-3, drift {position_drift:.2e} < {2*grid.dx:.2e}, "
        f"conservation {drift:.2e} ({elapsed:.1f} s)",
    )


def test_criterion_8_weak_form_battery():
    t0 = time.monotonic()
    sol = stationary_shock_example(2.0)
    worst = max(
        abs(weak_residuals(sol, ("mass",), bump)[0]) for bump in standard_battery(sol, count=20, seed=0)
    )
    perturbed = PiecewiseShockSolution(
        model=sol.model,
        states=(FluidState(1.0, 2.0), FluidState(2.0, 1.1)),
        shock_positions_t0=(0.0,),
        shock_speeds=(0.0,),
        domain=sol.domain,
    )
    detected = abs(weak_residuals(perturbed, ("mass",), BumpTestFunction(0.25, 0.0, 0.15, 0.3))[0])
    elapsed = time.monotonic() - t0
    ok = worst < 1e-8 and detected > 1e-3 and elapsed < 30.0
    report(8, ok, f"20-bump worst {worst:.2e} < 1e-8, perturbation signal {detected:.2e} > 1e-3")


def test_criterion_9_equivalence_and_mass_rate():
    t0 = time.monotonic()
    rng = np.random.default_rng(107)
    counterexamples = 0
    worst_rate_err = 0.0
    for k in range(50):
        sol = desk_scale_shock(rng)
        violate = k % 2 == 1
        if violate:
            left, right = sol.states
            delta = rng.uniform(0.05, 0.3) * float(rng.choice([-1.0, 1.0]))
            sol = PiecewiseShockSolution(
                model=sol.model,
                states=(left, FluidState(right.rho, right.u + delta)),
                shock_positions_t0=sol.shock_positions_t0,
                shock_speeds=sol.shock_speeds,
                domain=sol.domain,
            )
        res = rh_residuals(sol.jumps()[0], sol.model)
        bumps = standard_battery(sol, count=4, seed=int(rng.integers(0, 10000)))
        worst_weak = max(
            abs(r) for b in bumps for r in weak_residuals(sol, ("mass", "momentum"), b)
        )
        rh_zero = res.conserved_max_abs() < 1e-10
        weak_zero = worst_weak < 1e-8
        if rh_zero != weak_zero:
            counterexamples += 1
        if violate:
            u_l = sol.states[0].u
            u_r = sol.states[1].u
            rate = moving_domain_mass_rate(
                sol, lambda t: -1.0 + u_l * t, lambda t: 1.0 + u_r * t
            )
            worst_rate_err = max(worst_rate_err, abs(rate - (-res.mass)))
    elapsed = time.monotonic() - t0
    ok = counterexamples == 0 and worst_rate_err < 1e-6 and elapsed < 60.0
    report(
        9,
        ok,
        f"0 equivalence counterexamples (got {counterexamples}), mass-rate detection error "
        f"{worst_rate_err:.2e} < 1e-6 ({elapsed:.1f} s)",
    )
