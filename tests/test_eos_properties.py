"""Property test of every equation-of-state family row (Hypothesis)."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from shockaudit.eos import FAMILIES, FluidState, GasModel, internal_energy_density, pressure_from


def central_diff(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(data=st.data())
@pytest.mark.parametrize("kind", list(FAMILIES), ids=lambda kind: kind.value)
def test_row_closures_agree_with_the_row_energy(kind, data):
    """At fixed specific entropy S, p = rho d eps/drho - eps and c**2 = dp/drho.

    The property iterates eos.FAMILIES, so a new row is covered once it is
    added.  Each parameter is drawn log-uniform from 0.1 to 10 above the
    bound it must exceed, and rho over six decades.
    """
    family = FAMILIES[kind]
    params = {
        name: floor + 10.0 ** data.draw(st.floats(-1.0, 1.0), label=name)
        for name, (_, floor, _) in family.parameters.items()
    }
    model = GasModel(kind, **params)
    rho = 10.0 ** data.draw(st.floats(-3.0, 3.0), label="log10 rho")
    S = data.draw(st.floats(-1.0, 1.0), label="S") if family.carries_entropy else None
    h = 1e-5 * rho

    def eps(r):
        return family.energy(model, r, S)

    def p(r):
        return family.pressure(model, r, eps(r))

    assert p(rho) == pytest.approx(rho * central_diff(eps, rho, h) - eps(rho), rel=1e-6)
    assert family.sound_speed2(model, rho, p(rho)) == pytest.approx(central_diff(p, rho, h), rel=1e-6)
    # The public closures read the same row.
    assert pressure_from(model, rho, eps(rho)) == p(rho)
    state = FluidState(rho, 0.0, None if S is None else rho * S)
    assert internal_energy_density(model, state) == pytest.approx(eps(rho), rel=1e-14)
