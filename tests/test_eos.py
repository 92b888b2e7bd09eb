import math
import re
import sys

import numpy as np
import pytest

import oracles
from shockaudit.eos import (
    FAMILIES,
    FluidState,
    GasKind,
    GasModel,
    balance_terms,
    conserved,
    energy_density,
    entropy_density_from_pressure,
    internal_energy_density,
    lagrangian_density,
    physical_flux,
    pressure,
    pressure_from,
    sound_speed,
    sound_speed_from,
    temperature,
)
from shockaudit.errors import InvalidStateError, NumericalError, UnsupportedModelError

GAMMA2 = GasModel.barotropic(K=2.0 / 3.0, gamma=2.0)
IDEAL = GasModel.ideal_gas(gamma=1.4, e_ref=1.0, c_v=1.0)


def central_diff(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


class TestModelConstruction:
    def test_gamma_must_exceed_one(self):
        with pytest.raises(InvalidStateError):
            GasModel.barotropic(K=1.0, gamma=1.0)

    def test_positive_scales_required(self):
        with pytest.raises(InvalidStateError):
            GasModel.barotropic(K=0.0, gamma=2.0)
        with pytest.raises(InvalidStateError):
            GasModel.ideal_gas(gamma=1.4, e_ref=-1.0)
        with pytest.raises(InvalidStateError):
            GasModel.ideal_gas(gamma=1.4, c_v=0.0)

    @pytest.mark.parametrize(
        "kind, params",
        [
            (GasKind.IDEAL_GAS_ENTROPY, {"K": -5.0, "gamma": 1.4}),
            (GasKind.IDEAL_GAS_ENTROPY, {"K": 1.0, "gamma": 1.4}),
            (GasKind.BAROTROPIC_POLYTROPIC, {"K": 1.0, "gamma": 2.0, "e_ref": -3.0}),
            (GasKind.BAROTROPIC_POLYTROPIC, {"K": 1.0, "gamma": 2.0, "c_v": 1.0}),
        ],
    )
    def test_parameters_of_the_other_family_rejected(self, kind, params):
        foreign = sorted(set(params) - set(FAMILIES[kind].parameters))
        with pytest.raises(InvalidStateError, match=re.escape(f"takes no {foreign}")):
            GasModel(kind, **params)

    @pytest.mark.parametrize("kind, params", [(GasKind.BAROTROPIC_POLYTROPIC, {"gamma": 2.0}),
                                              (GasKind.BAROTROPIC_POLYTROPIC, {"K": 1.0}),
                                              (GasKind.IDEAL_GAS_ENTROPY, {})])
    def test_required_parameters(self, kind, params):
        with pytest.raises(InvalidStateError, match="needs"):
            GasModel(kind, **params)

    def test_defaults_and_unlisted_parameters(self):
        ideal = GasModel(GasKind.IDEAL_GAS_ENTROPY, gamma=1.4)
        assert (ideal.K, ideal.e_ref, ideal.c_v) == (None, 1.0, 1.0)
        assert ideal == GasModel.ideal_gas(gamma=1.4) == GasModel.ideal_gas(gamma=1.4, e_ref=1.0, c_v=1.0)
        assert (GAMMA2.e_ref, GAMMA2.c_v) == (None, None)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidStateError, match="unknown gas kind"):
            GasModel("barotropic_polytropic", K=1.0, gamma=2.0)

    def test_state_needs_positive_density(self):
        with pytest.raises(InvalidStateError):
            FluidState(0.0, 1.0)

    def test_entropy_field_must_match_model(self):
        with pytest.raises(InvalidStateError):
            pressure(IDEAL, FluidState(1.0, 0.0))
        with pytest.raises(InvalidStateError):
            pressure(GAMMA2, FluidState(1.0, 0.0, 0.5))


class TestPressure:
    def test_reference_polytrope(self):
        assert pressure(GAMMA2, FluidState(1.0, 0.0)) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_purity(self):
        state = FluidState(1.7, -0.4)
        assert pressure(GAMMA2, state) == pressure(GAMMA2, state)

    def test_ideal_gas_matches_density_derivative(self):
        # p = rho^2 de/drho at fixed specific entropy, by central differences.
        state = FluidState(1.0, 0.0, 0.0)
        S = 0.0

        def e_of_rho(rho):
            return IDEAL.e_ref * rho ** (IDEAL.gamma - 1.0) * math.exp(S / IDEAL.c_v)

        expected = state.rho ** 2 * central_diff(e_of_rho, state.rho)
        p = pressure(IDEAL, state)
        assert p == pytest.approx(expected, rel=1e-9)
        assert p == pytest.approx((IDEAL.gamma - 1.0) * 1.0 * e_of_rho(1.0), rel=1e-14)


class TestInternalEnergy:
    def test_reference_value(self):
        assert internal_energy_density(GAMMA2, FluidState(2.0, 0.0)) == pytest.approx(
            8.0 / 3.0, abs=1e-14
        )

    def test_vanishes_toward_vacuum(self):
        assert internal_energy_density(GAMMA2, FluidState(1e-12, 0.0)) < 1e-20

    def test_reference_scale_recovered(self):
        # s = 0 at rho = 1 puts the gas exactly at the reference energy.
        assert internal_energy_density(IDEAL, FluidState(1.0, 0.0, 0.0)) == pytest.approx(
            IDEAL.e_ref, abs=1e-15
        )


class TestEnergyDensity:
    def test_left_reference_state(self):
        assert energy_density(GAMMA2, FluidState(1.0, 2.0)) == pytest.approx(8.0 / 3.0, abs=1e-14)

    def test_right_reference_state(self):
        assert energy_density(GAMMA2, FluidState(2.0, 1.0)) == pytest.approx(11.0 / 3.0, abs=1e-14)

    def test_zero_velocity_is_internal_only(self):
        state = FluidState(1.3, 0.0)
        assert energy_density(GAMMA2, state) == internal_energy_density(GAMMA2, state)


class TestTemperature:
    def test_matches_entropy_derivative(self):
        state = FluidState(1.0, 0.0, 0.0)

        def eps_of_s(s):
            return internal_energy_density(IDEAL, FluidState(1.0, 0.0, s))

        assert abs(temperature(IDEAL, state) - central_diff(eps_of_s, 0.0, h=1e-5)) < 1e-6

    @pytest.mark.parametrize("rho, e_ref, c_v, S", [(2.5, 1.0, 1.0, 0.0), (1.0, 1.0, 0.4, 0.3),
                                                    (0.3, 2.0, 1.7, -0.5), (7.0, 0.6, 3.0, 1.2)])
    def test_entropy_derivative_away_from_unit_density_and_heat(self, rho, e_ref, c_v, S):
        # T = d eps / d s at fixed rho, with s = rho S the entropy density.
        model = GasModel.ideal_gas(gamma=1.6, e_ref=e_ref, c_v=c_v)

        def eps_of_s(s):
            return internal_energy_density(model, FluidState(rho, 0.0, s))

        expected = central_diff(eps_of_s, rho * S, h=1e-5 * rho * c_v)
        assert temperature(model, FluidState(rho, 0.0, rho * S)) == pytest.approx(expected, rel=1e-8)

    def test_monotone_in_entropy(self):
        temps = [temperature(IDEAL, FluidState(1.0, 0.0, s)) for s in np.linspace(-1.0, 1.0, 9)]
        assert all(b > a for a, b in zip(temps, temps[1:]))

    def test_barotropic_unsupported(self):
        with pytest.raises(UnsupportedModelError):
            temperature(GAMMA2, FluidState(1.0, 0.0))


class TestSoundSpeed:
    def test_closed_form(self):
        model = GasModel.barotropic(K=1.0, gamma=2.0)
        assert sound_speed(model, FluidState(1.0, 0.0)) == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_matches_finite_difference(self):
        def p_of_rho(rho):
            return pressure(GAMMA2, FluidState(rho, 0.0))

        c = sound_speed(GAMMA2, FluidState(1.3, 0.0))
        assert c ** 2 == pytest.approx(central_diff(p_of_rho, 1.3), rel=1e-8)

    def test_ideal_gas_matches_isentropic_derivative(self):
        # Vary rho at fixed specific entropy S = s / rho.
        S = 0.2

        def p_iso(rho):
            return pressure(IDEAL, FluidState(rho, 0.0, rho * S))

        c = sound_speed(IDEAL, FluidState(1.1, 0.0, 1.1 * S))
        assert c ** 2 == pytest.approx(central_diff(p_iso, 1.1), rel=1e-8)

    def test_positive_slope_everywhere_sampled(self):
        for rho in np.linspace(0.2, 4.0, 25):
            def p_of_rho(r):
                return pressure(GAMMA2, FluidState(r, 0.0))

            assert central_diff(p_of_rho, rho) > 0.0

    def test_monotone_in_density(self):
        speeds = [sound_speed(GAMMA2, FluidState(r, 0.0)) for r in np.linspace(0.2, 4.0, 20)]
        assert all(b > a for a, b in zip(speeds, speeds[1:]))


class TestLegendreConsistency:
    def test_pressure_formula_from_lagrangian_density(self):
        # p = l - rho dl/drho - s dl/ds with central differences, over random states.
        rng = np.random.default_rng(7)
        h = 1e-6
        for _ in range(1000):
            gamma = rng.uniform(1.2, 2.5)
            if rng.random() < 0.5:
                model = GasModel.barotropic(K=rng.uniform(0.3, 3.0), gamma=gamma)
                state = FluidState(rng.uniform(0.3, 3.0), rng.uniform(-2.0, 2.0))
                s_term = 0.0
            else:
                model = GasModel.ideal_gas(gamma=gamma, e_ref=rng.uniform(0.5, 2.0), c_v=rng.uniform(0.5, 2.0))
                state = FluidState(rng.uniform(0.3, 3.0), rng.uniform(-2.0, 2.0), rng.uniform(-0.5, 0.5))
                dl_ds = (
                    lagrangian_density(model, FluidState(state.rho, state.u, state.s + h))
                    - lagrangian_density(model, FluidState(state.rho, state.u, state.s - h))
                ) / (2.0 * h)
                s_term = state.s * dl_ds
            dl_drho = (
                lagrangian_density(model, FluidState(state.rho + h, state.u, state.s))
                - lagrangian_density(model, FluidState(state.rho - h, state.u, state.s))
            ) / (2.0 * h)
            legendre = lagrangian_density(model, state) - state.rho * dl_drho - s_term
            assert legendre == pytest.approx(pressure(model, state), rel=1e-6, abs=1e-6)

    def test_tight_consistency_with_analytic_derivatives(self):
        # 1e-12 relative agreement of the Legendre formula against the closed
        # form, with the Lagrangian-density derivatives written out by hand
        # (central differences bottom out near 1e-10 relative and cannot
        # certify this tolerance).
        for model, state in [
            (GAMMA2, FluidState(1.0, 0.5)),
            (GasModel.barotropic(K=1.0, gamma=3.0), FluidState(1.3, -0.3)),
            (IDEAL, FluidState(1.2, 0.2, 0.1)),
        ]:
            g = model.gamma
            if state.s is None:
                dl_drho = 0.5 * state.u ** 2 - model.K * g / (g - 1.0) * state.rho ** (g - 1.0)
                s_term = 0.0
            else:
                S = state.s / state.rho
                e = model.e_ref * state.rho ** (g - 1.0) * math.exp(S / model.c_v)
                deps_drho = g * e - (S / model.c_v) * e
                deps_ds = e / model.c_v
                dl_drho = 0.5 * state.u ** 2 - deps_drho
                s_term = state.s * (-deps_ds)
            legendre = lagrangian_density(model, state) - state.rho * dl_drho - s_term
            assert legendre == pytest.approx(pressure(model, state), rel=1e-12)


class TestBounds:
    def test_energy_ordering(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            model = GasModel.barotropic(K=rng.uniform(0.2, 3.0), gamma=rng.uniform(1.1, 3.0))
            state = FluidState(rng.uniform(0.1, 4.0), rng.uniform(-3.0, 3.0))
            eps = internal_energy_density(model, state)
            assert energy_density(model, state) >= eps >= 0.0

    def test_temperature_positive_on_sampled_domain(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            state = FluidState(rng.uniform(0.2, 3.0), rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0))
            assert temperature(IDEAL, state) > 0.0


class TestEntropyInversion:
    def test_round_trip(self):
        state = FluidState(1.7, 0.0, 0.6)
        p = pressure(IDEAL, state)
        assert entropy_density_from_pressure(IDEAL, 1.7, p) == pytest.approx(0.6, abs=1e-12)

    def test_array_inversion_matches_scalar(self):
        rho = np.array([0.4, 1.0, 2.5])
        s_true = np.array([-0.3, 0.0, 1.2])
        p = np.array([pressure(IDEAL, FluidState(r, 0.0, sv)) for r, sv in zip(rho, s_true)])
        got = entropy_density_from_pressure(IDEAL, rho, p)
        assert isinstance(got, np.ndarray)
        for k in range(3):
            scalar = entropy_density_from_pressure(IDEAL, float(rho[k]), float(p[k]))
            assert got[k] == pytest.approx(scalar, rel=1e-14, abs=1e-15)
            assert got[k] == pytest.approx(s_true[k], abs=1e-12)

    @pytest.mark.parametrize("rho, p", [(np.array([1.0, 0.0]), np.array([1.0, 1.0])),
                                        (np.array([1.0, 1.0]), np.array([1.0, -2.0]))])
    def test_array_inversion_rejects_nonpositive_cells(self, rho, p):
        with pytest.raises(InvalidStateError):
            entropy_density_from_pressure(IDEAL, rho, p)

    @pytest.mark.parametrize("model, p", [
        (GasModel.ideal_gas(gamma=1.4, e_ref=1e-320), 1.0),  # (gamma - 1) e_ref rho**gamma is subnormal
        (IDEAL, 1e-310),
    ], ids=["scale", "pressure"])
    @pytest.mark.parametrize("as_array", [False, True], ids=["scalar", "array"])
    def test_subnormal_scale_or_pressure_is_refused(self, model, p, as_array):
        rho, p = (np.array([1.0, 1.0]), np.array([1.0, p])) if as_array else (1.0, p)
        with pytest.raises(NumericalError, match="underflows to a subnormal"):
            entropy_density_from_pressure(model, rho, p)

    def test_smallest_normal_pressure_is_inverted(self):
        assert math.isfinite(entropy_density_from_pressure(IDEAL, 1.0, sys.float_info.min))


NON_FINITE = [math.nan, math.inf, -math.inf]


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("name", ["rho", "u", "s"])
    def test_state_rejects_non_finite_fields(self, name, bad):
        fields = {"rho": 1.0, "u": 0.0, "s": 0.0}
        fields[name] = bad
        with pytest.raises(InvalidStateError):
            FluidState(**fields)

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("name", ["K", "gamma", "e_ref", "c_v"])
    @pytest.mark.parametrize("kind", list(GasKind))
    def test_model_rejects_non_finite_parameters(self, kind, name, bad):
        with pytest.raises(InvalidStateError):
            GasModel(kind, **{name: bad})


def _sample_states(rng, model, n):
    for _ in range(n):
        rho, u = rng.uniform(0.1, 5.0), rng.uniform(-3.0, 3.0)
        yield FluidState(rho, u, rho * rng.uniform(-1.0, 1.0) if model.carries_entropy else None)


def _oracle_laws(model, state):
    if model.carries_entropy:
        return oracles.ideal_laws(model.gamma, model.e_ref, model.c_v, state.rho, state.u, state.s)
    return oracles.baro_laws(model.K, model.gamma, state.rho, state.u)


KERNEL_MODELS = [
    GasModel.barotropic(K=0.7, gamma=1.8),
    GasModel.ideal_gas(gamma=1.4, e_ref=0.9, c_v=1.3),
]


class TestConservationKernel:
    @pytest.mark.parametrize("model", KERNEL_MODELS, ids=lambda m: m.kind.value)
    def test_scalar_flux_matches_oracle(self, model):
        rng = np.random.default_rng(31)
        for state in _sample_states(rng, model, 100):
            U = conserved(model, state)
            F = physical_flux(U, state.u, pressure(model, state))
            laws = _oracle_laws(model, state)
            for k, name in enumerate(("mass", "momentum", "energy")):
                U_o, F_o = laws[name]
                assert U[k] == pytest.approx(U_o, rel=1e-14)
                assert F[k] == pytest.approx(F_o, rel=1e-14, abs=1e-14)
            assert balance_terms(model, state) == (U, F)

    @pytest.mark.parametrize("model", KERNEL_MODELS, ids=lambda m: m.kind.value)
    def test_array_flux_matches_oracle(self, model):
        rng = np.random.default_rng(32)
        states = list(_sample_states(rng, model, 50))
        rho = np.array([st.rho for st in states])
        u = np.array([st.u for st in states])
        U = np.array([conserved(model, st) for st in states]).T
        eps = U[2] - 0.5 * U[1] ** 2 / rho if model.carries_entropy else None
        p = pressure_from(model, rho, eps)
        F = physical_flux(U, u, p)
        assert all(isinstance(f, np.ndarray) and f.shape == (50,) for f in F)
        for i, st in enumerate(states):
            laws = _oracle_laws(model, st)
            for k, name in enumerate(("mass", "momentum", "energy")):
                assert F[k][i] == pytest.approx(laws[name][1], rel=1e-13, abs=1e-13)

    def test_barotropic_flux_has_two_components_for_two_rows(self):
        F = physical_flux((1.0, 2.0), 2.0, 0.5)
        assert F == (2.0, 4.5)

    @pytest.mark.parametrize("model", KERNEL_MODELS, ids=lambda m: m.kind.value)
    def test_closures_agree_on_scalars_and_arrays(self, model):
        rng = np.random.default_rng(33)
        states = list(_sample_states(rng, model, 40))
        rho = np.array([st.rho for st in states])
        eps = np.array([internal_energy_density(model, st) for st in states])
        p = pressure_from(model, rho, eps if model.carries_entropy else None)
        c = sound_speed_from(model, rho, p)
        for i, st in enumerate(states):
            assert p[i] == pytest.approx(pressure(model, st), rel=1e-14)
            assert c[i] == pytest.approx(sound_speed(model, st), rel=1e-14)
        assert type(pressure(model, states[0])) is float
        assert type(sound_speed(model, states[0])) is float
