import math
from dataclasses import fields

import numpy as np
import pytest

import oracles
from shockaudit.eos import FluidState, GasModel, specific_entropy
from shockaudit.errors import (
    DegenerateJumpError,
    InvalidJumpError,
    InvalidStateError,
    NoShockError,
    NumericalError,
)
from shockaudit.rh import (
    ADMISSIBILITY_RESIDUAL_TOL,
    RESIDUAL_TOL,
    RhResidual,
    ShockJump,
    entropy_admissible,
    gated_residual,
    hugoniot_solve,
    interface_energy_rate,
    rh_residuals,
    shock_speed_from_mass,
)

GAMMA2 = GasModel.barotropic(K=2.0 / 3.0, gamma=2.0)
IDEAL = GasModel.ideal_gas(gamma=1.4)
LEFT = FluidState(1.0, 2.0)
RIGHT = FluidState(2.0, 1.0)

# Frozen grid-scan oracle outputs for left=(1,0), rho_right=2, gamma=1.4, K=1
# (oracles.scan_barotropic) and for the entropy-carrying case with p_left=1
# (oracles.scan_full).
BARO_CASE_U_R = -0.9052667622159196
BARO_CASE_V_S = -1.8105335244318392
FULL_CASE_U_R = -0.9354143466934854
FULL_CASE_S_R = 1.914971181537424
FULL_CASE_V_S = -1.8708286933869709


class TestResiduals:
    def test_reference_stationary_shock(self):
        jump = ShockJump(left=LEFT, right=RIGHT, n=1.0, v_s=0.0)
        res = rh_residuals(jump, GAMMA2)
        assert abs(res.mass) < 1e-14
        assert abs(res.momentum) < 1e-14

    def test_zero_jump_is_exactly_zero(self):
        jump = ShockJump(left=LEFT, right=LEFT, n=1.0, v_s=0.7)
        res = rh_residuals(jump, GAMMA2)
        assert res == RhResidual(mass=0.0, momentum=0.0, energy=0.0)
        assert res.as_dict() == {"mass": 0.0, "momentum": 0.0, "energy": 0.0, "entropy_var": 0.0}

    def test_energy_residual_is_minus_dissipation(self):
        # (E_R + p_R) u_R - (E_L + p_L) u_L = -1/3 for the reference shock,
        # so the residual convention reports +1/3.
        jump = ShockJump(left=LEFT, right=RIGHT, n=1.0, v_s=0.0)
        res = rh_residuals(jump, GAMMA2)
        assert res.energy == pytest.approx(1.0 / 3.0, abs=1e-13)
        assert interface_energy_rate(jump, GAMMA2) == pytest.approx(-1.0 / 3.0, abs=1e-13)

    def test_entropy_var_output_is_zero(self):
        left = FluidState(1.0, 0.0, 0.3)
        right = FluidState(2.0, 0.5, 1.1)
        jump = ShockJump(left=left, right=right, n=1.0, v_s=0.25)
        assert rh_residuals(jump, IDEAL).as_dict()["entropy_var"] == 0.0

    @pytest.mark.parametrize("u_right,value", [(1e150, "nan"), (1.0, "inf")])
    def test_overflowing_flux_names_the_non_finite_law(self, u_right, value):
        # Finite states whose u * u fits a double, but whose energy flux
        # (E + p) u overflows: the energy bracket is inf - inf or inf.
        jump = ShockJump(left=FluidState(1.0, 1e150), right=FluidState(2.0, u_right))
        with pytest.raises(NumericalError, match=f"^non-finite energy jump residual {value}$"):
            rh_residuals(jump, GAMMA2)

    def test_normal_must_be_unit(self):
        with pytest.raises(InvalidStateError):
            ShockJump(left=LEFT, right=RIGHT, n=0.5, v_s=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_jump_data_rejected(self, bad):
        with pytest.raises(InvalidStateError):
            ShockJump(left=LEFT, right=RIGHT, v_s=bad)

    def test_fields_are_states_normal_and_speed(self):
        assert [f.name for f in fields(ShockJump)] == ["left", "right", "n", "v_s"]
        assert [f.name for f in fields(RhResidual)] == ["mass", "momentum", "energy"]


class TestNormalFlip:
    def test_flip_preserves_residuals(self):
        # Swapping sides, negating the normal, and flipping the normal speed
        # describes the same interface; each residual must be preserved.
        rng = np.random.default_rng(11)
        for _ in range(100):
            model = GasModel.barotropic(K=rng.uniform(0.3, 2.0), gamma=rng.uniform(1.2, 2.8))
            left = FluidState(rng.uniform(0.3, 3.0), rng.uniform(-2.0, 2.0))
            right = FluidState(rng.uniform(0.3, 3.0), rng.uniform(-2.0, 2.0))
            v_s = rng.uniform(-2.0, 2.0)
            res = rh_residuals(ShockJump(left=left, right=right, n=1.0, v_s=v_s), model)
            flipped = rh_residuals(ShockJump(left=right, right=left, n=-1.0, v_s=-v_s), model)
            assert abs(res.mass - flipped.mass) < 1e-14
            assert abs(res.momentum - flipped.momentum) < 1e-14
            assert abs(res.energy - flipped.energy) < 1e-13


class TestGalileanCovariance:
    def test_boost_leaves_residuals_invariant(self):
        # Mass-consistent jumps (speed from the mass condition), boosted by
        # u -> u + c and v_s -> v_s + c n.
        rng = np.random.default_rng(13)
        for _ in range(100):
            model = GasModel.barotropic(K=rng.uniform(0.3, 2.0), gamma=rng.uniform(1.2, 2.8))
            left = FluidState(rng.uniform(0.3, 3.0), rng.uniform(-2.0, 2.0))
            right = FluidState(rng.uniform(0.3, 3.0) + left.rho + 0.05, rng.uniform(-2.0, 2.0))
            n = 1.0 if rng.random() < 0.5 else -1.0
            v_s = shock_speed_from_mass(left, right, n)
            c = rng.uniform(-3.0, 3.0)
            res = rh_residuals(ShockJump(left=left, right=right, n=n, v_s=v_s), model)
            boosted = rh_residuals(
                ShockJump(
                    left=FluidState(left.rho, left.u + c),
                    right=FluidState(right.rho, right.u + c),
                    n=n,
                    v_s=v_s + c * n,
                ),
                model,
            )
            assert abs(res.mass - boosted.mass) < 1e-12
            assert abs(res.momentum - boosted.momentum) < 1e-12


class TestShockSpeedFromMass:
    def test_reference_shock_is_stationary(self):
        assert shock_speed_from_mass(LEFT, RIGHT, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_static_states(self):
        assert shock_speed_from_mass(FluidState(1.0, 0.0), FluidState(2.0, 0.0), 1.0) == 0.0

    def test_generic_value(self):
        assert shock_speed_from_mass(FluidState(1.0, 1.0), FluidState(3.0, 2.0), 1.0) == pytest.approx(2.5)

    def test_equal_densities_degenerate(self):
        with pytest.raises(DegenerateJumpError):
            shock_speed_from_mass(FluidState(1.0, 1.0), FluidState(1.0, 2.0), 1.0)


class TestBarotropicSolver:
    def test_reference_completion(self):
        jump = hugoniot_solve(LEFT, 2.0, GAMMA2)
        assert jump.left == LEFT and jump.n == 1.0
        assert jump.right.rho == 2.0
        assert jump.right.u == pytest.approx(1.0, abs=1e-12)
        assert jump.v_s == pytest.approx(0.0, abs=1e-12)

    def test_equal_density_rejected(self):
        with pytest.raises(DegenerateJumpError):
            hugoniot_solve(LEFT, 1.0, GAMMA2)

    def test_against_frozen_oracle_values(self):
        model = GasModel.barotropic(K=1.0, gamma=1.4)
        jump = hugoniot_solve(FluidState(1.0, 0.0), 2.0, model)
        assert jump.right.u == pytest.approx(BARO_CASE_U_R, abs=1e-12)
        assert jump.v_s == pytest.approx(BARO_CASE_V_S, abs=1e-12)

    def test_against_live_grid_scan(self):
        model = GasModel.barotropic(K=1.0, gamma=1.4)
        got = hugoniot_solve(FluidState(1.0, 0.0), 2.0, model)
        roots = oracles.scan_barotropic(1.0, 1.4, 1.0, 0.0, 2.0)
        assert any(abs(got.right.u - u) < 1e-6 and abs(got.v_s - v) < 1e-6 for u, v in roots)

    def test_both_branches_solve_the_system(self):
        for branch in ("admissible", "inadmissible"):
            jump = hugoniot_solve(LEFT, 2.0, GAMMA2, branch=branch)
            assert rh_residuals(jump, GAMMA2).conserved_max_abs() < 1e-10

    def test_branch_admissibility_split(self):
        assert entropy_admissible(hugoniot_solve(LEFT, 2.0, GAMMA2, branch="admissible"), GAMMA2)
        assert not entropy_admissible(hugoniot_solve(LEFT, 2.0, GAMMA2, branch="inadmissible"), GAMMA2)

    def test_oracle_equivalence_on_random_instances(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            gamma = rng.uniform(1.1, 2.9)
            K = rng.uniform(0.3, 3.0)
            model = GasModel.barotropic(K=K, gamma=gamma)
            left = FluidState(rng.uniform(0.3, 3.0), rng.uniform(-2.0, 2.0))
            ratio = rng.uniform(1.05, 3.0) if rng.random() < 0.5 else rng.uniform(0.35, 0.95)
            rho_r = left.rho * ratio
            got = hugoniot_solve(left, rho_r, model)
            roots = oracles.scan_barotropic(K, gamma, left.rho, left.u, rho_r)
            assert len(roots) == 2
            assert any(abs(got.right.u - u) < 1e-6 and abs(got.v_s - v) < 1e-6 for u, v in roots)

    def test_solver_residual_closure(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            model = GasModel.barotropic(K=rng.uniform(0.3, 3.0), gamma=rng.uniform(1.1, 2.9))
            left = FluidState(rng.uniform(0.3, 3.0), rng.uniform(-2.0, 2.0))
            rho_r = left.rho * rng.uniform(1.05, 3.0)
            for branch in ("admissible", "inadmissible"):
                jump = hugoniot_solve(left, rho_r, model, branch=branch)
                assert rh_residuals(jump, model).conserved_max_abs() < 1e-10


class TestReferencePressureScale:
    @pytest.mark.parametrize("gamma", [1.2, 1.4, 5.0 / 3.0, 2.0, 3.0])
    def test_momentum_balance_forces_K(self, gamma):
        # For states (1,2)|(2,1) at rest interface, momentum balance reads
        # 2 + K 2^gamma = 4 + K, i.e. K = 2 / (2^gamma - 1).
        K = 2.0 / (2.0 ** gamma - 1.0)
        model = GasModel.barotropic(K=K, gamma=gamma)
        jump = ShockJump(left=LEFT, right=RIGHT, n=1.0, v_s=0.0)
        assert rh_residuals(jump, model).momentum == pytest.approx(0.0, abs=1e-12)
        assert 2.0 + K * 2.0 ** gamma == pytest.approx(4.0 + K, abs=1e-12)


class TestFullSolver:
    def left_state(self):
        # Entropy density chosen so the left pressure is exactly 1.
        s0 = math.log(1.0 / 0.4)
        return FluidState(1.0, 0.0, s0)

    def test_weak_shock_limit(self):
        left = self.left_state()
        right = hugoniot_solve(left, 1.0 + 1e-4, IDEAL).right
        assert abs(right.u - left.u) < 1e-3
        assert abs(specific_entropy(right) - specific_entropy(left)) < 1e-3

    def test_against_frozen_oracle_values(self):
        jump = hugoniot_solve(self.left_state(), 2.0, IDEAL)
        assert jump.right.u == pytest.approx(FULL_CASE_U_R, abs=1e-12)
        assert jump.right.s == pytest.approx(FULL_CASE_S_R, abs=1e-12)
        assert jump.v_s == pytest.approx(FULL_CASE_V_S, abs=1e-12)

    def test_against_live_grid_scan(self):
        left = self.left_state()
        jump = hugoniot_solve(left, 2.0, IDEAL)
        roots = oracles.scan_full(1.4, 1.0, 1.0, 1.0, 0.0, left.s, 2.0)
        assert any(
            abs(jump.right.u - u) < 1e-6 and abs(jump.right.s - s) < 1e-6 and abs(jump.v_s - v) < 1e-6
            for u, s, v in roots
        )
        assert rh_residuals(jump, IDEAL).max_abs() < 1e-10

    def test_admissible_branch_raises_entropy(self):
        left = self.left_state()
        jump = hugoniot_solve(left, 2.0, IDEAL)
        right = jump.right
        flux = left.rho * (left.u - jump.v_s)
        upstream, downstream = (left, right) if flux > 0 else (right, left)
        assert specific_entropy(downstream) >= specific_entropy(upstream)
        assert entropy_admissible(jump, IDEAL)

    def test_over_compression_has_no_shock(self):
        left = self.left_state()
        limit = (IDEAL.gamma + 1.0) / (IDEAL.gamma - 1.0)
        with pytest.raises(NoShockError):
            hugoniot_solve(left, left.rho * (limit + 0.5), IDEAL)

    def test_energy_conservation_on_random_instances(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            gamma = rng.uniform(1.15, 2.2)
            model = GasModel.ideal_gas(gamma=gamma, e_ref=rng.uniform(0.5, 2.0), c_v=rng.uniform(0.5, 2.0))
            rho_l = rng.uniform(0.4, 2.5)
            left = FluidState(rho_l, rng.uniform(-1.5, 1.5), rho_l * rng.uniform(-0.4, 0.4))
            limit = (gamma + 1.0) / (gamma - 1.0)
            rho_r = rho_l * rng.uniform(1.1, min(2.8, 0.85 * limit))
            jump = hugoniot_solve(left, rho_r, model)
            right = jump.right
            res = rh_residuals(jump, model)
            assert abs(res.energy) < 1e-10
            flux = left.rho * (left.u - jump.v_s)
            upstream, downstream = (left, right) if flux > 0 else (right, left)
            assert specific_entropy(downstream) >= specific_entropy(upstream) - 1e-12


SOLVER_CASES = {
    "barotropic": (GAMMA2, LEFT),
    "full": (IDEAL, FluidState(1.0, 0.0, math.log(1.0 / 0.4))),
}


@pytest.mark.parametrize("model, left", SOLVER_CASES.values(), ids=list(SOLVER_CASES))
class TestSolverGuards:
    """hugoniot_solve keeps every guard for both gas models."""

    @pytest.mark.parametrize("rho_right", [0.0, -1.0, math.nan])
    def test_nonpositive_rho_right(self, model, left, rho_right):
        with pytest.raises(InvalidStateError):
            hugoniot_solve(left, rho_right, model)

    def test_unknown_branch(self, model, left):
        with pytest.raises(InvalidStateError):
            hugoniot_solve(left, 2.0 * left.rho, model, branch="physical")

    def test_degenerate_density(self, model, left):
        with pytest.raises(DegenerateJumpError):
            hugoniot_solve(left, left.rho, model)

    def test_state_must_match_model(self, model, left):
        mismatched = FluidState(left.rho, left.u, None if left.s is not None else 0.0)
        with pytest.raises(InvalidStateError):
            hugoniot_solve(mismatched, 2.0 * left.rho, model)

    def test_branches_are_distinct_roots(self, model, left):
        adm = hugoniot_solve(left, 2.0 * left.rho, model, branch="admissible")
        inadm = hugoniot_solve(left, 2.0 * left.rho, model, branch="inadmissible")
        assert adm.right.u != inadm.right.u and adm.v_s != inadm.v_s

    @pytest.mark.parametrize("branch", ["admissible", "inadmissible"])
    def test_returns_a_jump_that_passes_the_gate(self, model, left, branch):
        # The right state carries s exactly when the model does, and the
        # returned jump satisfies the laws the model is gated on.
        jump = hugoniot_solve(left, 2.0 * left.rho, model, branch=branch)
        assert isinstance(jump, ShockJump)
        assert (jump.right.s is not None) == model.carries_entropy
        assert gated_residual(rh_residuals(jump, model), model) <= RESIDUAL_TOL


@pytest.mark.parametrize("ratio", [6.5, 100.0, 6.0, 1.0 / 6.0])
def test_full_solver_no_shock_ratio(ratio):
    # (gamma + 1) / (gamma - 1) = 6 at gamma = 1.4: no shock at or beyond it
    # (at 6.0 the downstream-pressure denominator used to round to 5.6e-17
    # and return a spurious shock with u_right of about -1.2e8).
    left = FluidState(1.0, 0.0, 0.0)
    with pytest.raises(NoShockError):
        hugoniot_solve(left, ratio, IDEAL)


@pytest.mark.parametrize("gamma", [1.1, 1.2, 1.4, 5.0 / 3.0, 3.0])
@pytest.mark.parametrize("rho_l", [0.3, 1.0, 7.0])
def test_full_solver_rejects_roundoff_neighbours_of_limiting_ratio(gamma, rho_l):
    # Within a few roundoffs of either limiting ratio the sign of the
    # cancelling pressure-relation terms is not determined.
    model = GasModel.ideal_gas(gamma=gamma)
    left = FluidState(rho_l, 0.0, 0.0)
    limit = (gamma + 1.0) / (gamma - 1.0)
    for base in (rho_l * limit, rho_l / limit):
        for k in range(-8, 9):
            with pytest.raises(NoShockError):
                hugoniot_solve(left, base * (1.0 + k * 2.2e-16), model)


class TestAdmissibility:
    def test_reference_shock_admissible(self):
        jump = ShockJump(left=LEFT, right=RIGHT, n=1.0, v_s=0.0)
        assert interface_energy_rate(jump, GAMMA2) == pytest.approx(-1.0 / 3.0, abs=1e-13)
        assert entropy_admissible(jump, GAMMA2)

    def test_reversed_jump_rejected(self):
        expansion = ShockJump(left=RIGHT, right=LEFT, n=1.0, v_s=0.0)
        assert not entropy_admissible(expansion, GAMMA2)

    def test_zero_jump_admissible(self):
        assert entropy_admissible(ShockJump(left=LEFT, right=LEFT, n=1.0, v_s=0.3), GAMMA2)

    def test_precondition_enforced(self):
        bad = ShockJump(left=LEFT, right=FluidState(2.0, 1.5), n=1.0, v_s=0.0)
        with pytest.raises(InvalidJumpError):
            entropy_admissible(bad, GAMMA2)

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_precondition_is_the_module_constant(self, factor):
        # Shifting v_s off the reference shock leaves a mass residual of v_s [[rho]] = v_s
        # and no momentum residual, since rho u is 2 on both sides.
        jump = ShockJump(left=LEFT, right=RIGHT, n=1.0, v_s=factor * ADMISSIBILITY_RESIDUAL_TOL)
        if factor < 1.0:
            assert entropy_admissible(jump, GAMMA2)
        else:
            with pytest.raises(InvalidJumpError, match="1.0e-08"):
                entropy_admissible(jump, GAMMA2)


class TestResidualRecord:
    def test_dict_shape(self):
        res = RhResidual(mass=1.0, momentum=-2.0, energy=0.5)
        assert (res.mass, res.momentum, res.energy) == (1.0, -2.0, 0.5)
        # entropy_var stays in the output, always 0, for the fixed five-row CSV.
        assert res.as_dict() == {"mass": 1.0, "momentum": -2.0, "energy": 0.5, "entropy_var": 0.0}
        assert res.max_abs() == 2.0
        assert RhResidual(mass=0.5, momentum=-1.0, energy=-3.0).max_abs() == 3.0
        assert res.conserved_max_abs() == 2.0
