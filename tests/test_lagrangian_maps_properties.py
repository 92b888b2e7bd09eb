"""Property tests of the dissipation-potential calibration (Hypothesis)."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from shockaudit.eos import FluidState, GasModel
from shockaudit.lagrangian_maps import augmented_energy_rate, augmented_jump_residual, calibrate_lambda
from shockaudit.rh import hugoniot_solve
from shockaudit.shock1d import Domain1D, PiecewiseShockSolution, energy_rate


def two_state_solution(K, gamma, left, right, v_s):
    span = 4.0 + 2.0 * abs(v_s)
    return PiecewiseShockSolution(
        model=GasModel.barotropic(K=K, gamma=gamma),
        states=(left, right),
        shock_positions_t0=(0.0,),
        shock_speeds=(v_s,),
        domain=Domain1D(-span, span),
    )


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(
    gamma=st.floats(1.15, 2.2),
    K=st.floats(0.4, 1.5),
    rho=st.floats(0.5, 2.0),
    u=st.floats(-1.5, 1.5),
    ratio=st.one_of(st.floats(1.1, 2.2), st.floats(0.45, 0.9)),
    k=st.integers(-50, 10),
)
# One input in a few thousand tells u ** 2 (libm pow) from u * u; these two
# differ in the last bits of lambda_right under u ** 2.
@example(gamma=1.513, K=1.002, rho=1.015, u=-0.933, ratio=1.505, k=-17)
@example(gamma=2.118, K=0.778, rho=1.24, u=-0.99, ratio=0.51, k=-4)
def test_calibration_scales_with_the_velocity_unit(gamma, K, rho, u, ratio, k):
    # u and v_s scaled by s = 2**k and K by s**2 scale every energy term by
    # s**2 and every energy flux by s**3, so lambda = rate / relative speed
    # scales by s**2 and the gauge (which lambda is pinned to 0) stays put.
    # Products, sums and quotients scale exactly by powers of 2 in floating
    # point (k is bounded so nothing leaves the normal range), and eos squares
    # u as u * u, so the scaled lambdas are exact.
    model = GasModel.barotropic(K=K, gamma=gamma)
    left = FluidState(rho, u)
    jump = hugoniot_solve(left, rho * ratio, model)
    right = jump.right
    s = 2.0 ** k
    original = calibrate_lambda(two_state_solution(K, gamma, left, right, jump.v_s))
    scaled = calibrate_lambda(
        two_state_solution(
            K * s * s, gamma, FluidState(left.rho, left.u * s), FluidState(right.rho, right.u * s), jump.v_s * s
        )
    )
    assert scaled == tuple(s * s * lam for lam in original)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(
    gamma=st.floats(1.15, 2.2),
    K=st.floats(0.4, 1.5),
    rho=st.floats(0.5, 2.0),
    u=st.floats(-1.5, 1.5),
    ratio=st.one_of(st.floats(1.1, 2.2), st.floats(0.45, 0.9)),
    kappa=st.one_of(st.just(0.0), st.floats(-1e3, 1e3)),
)
def test_gauge_family_closes_the_budget(gamma, K, rho, u, ratio, kappa):
    # The homogeneous relation lambda_r (u_r - v_s) - lambda_l (u_l - v_s) = 0
    # has the solutions kappa (u_r - v_s, u_l - v_s), so every member of that
    # family added to the calibrated pair closes the budget too.  The scale
    # is the size of the added and the calibrated terms; the jump residual
    # cancels O(1) energies and fluxes down to the much smaller dE/dt of a
    # weak shock, hence the margin over double roundoff.
    model = GasModel.barotropic(K=K, gamma=gamma)
    left = FluidState(rho, u)
    jump = hugoniot_solve(left, rho * ratio, model)
    sol = two_state_solution(K, gamma, left, jump.right, jump.v_s)
    rel_l = left.u - jump.v_s
    rel_r = jump.right.u - jump.v_s
    lam_l, lam_r = calibrate_lambda(sol)
    lam = (lam_l + kappa * rel_r, lam_r + kappa * rel_l)
    scale = abs(kappa * rel_l * rel_r) + abs(energy_rate(sol))
    assert abs(augmented_energy_rate(sol, lam)) <= 1e-10 * scale
    assert abs(augmented_jump_residual(sol, lam)) <= 1e-10 * scale
