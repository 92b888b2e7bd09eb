"""Weak-form residual verification and moving-domain conservation audits.

A candidate solution is a weak solution of a conservation law exactly when
the spacetime integral of U dh/dt + F(U) dh/dx vanishes for every smooth
compactly supported test function h.  For piecewise-constant candidates the
integrand is smooth per region, so shock-aligned subdivision plus composite
Gauss quadrature evaluates the residual to near machine precision.

A battery of bumps is evaluated in one pass (battery_residuals): the time
factors of every slab of every bump in one mollifier call, every
sub-region between fixed breaks in one more, and the sub-regions next to a
moving shock one slab at a time, which bounds the node arrays alive at once.
The sums keep their per-bump shapes, because BLAS sums a row of a stacked
matrix-vector product in another order than the same row alone: each
sub-region's space sums stay a (1, nq) or (nt, nq) product (stacked along a
leading axis that matmul loops over), each slab adds its sub-regions in
break order, and each slab and law is one (1, nt) @ (nt, 1) dot added to
its bump's total in slab order.  So every residual has the bits of its bump
evaluated alone, and weak_residuals is the one-bump battery.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .eos import balance_terms
from .errors import DomainError, InvalidStateError, NumericalError
from .shock1d import PiecewiseShockSolution, evaluate

COMPONENTS = ("mass", "momentum", "energy")

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


class _UniformStream:
    """The random()/uniform() draws of numpy's default_rng(seed), in pure Python.

    numpy's SeedSequence hashes the seed's 32-bit words into a pool of four
    and expands it into the 128-bit state and increment of a PCG64 (PCG
    XSL-RR 128/64) generator; a double is the top 53 bits of one output.
    The same stream, bit for bit, without loading numpy's random module
    (about 6 MiB per process) for a few dozen scalar draws.
    """

    def __init__(self, seed):
        seed = int(seed)
        words = [seed & _MASK32]
        while seed >> 32:
            seed >>= 32
            words.append(seed & _MASK32)
        hash_const = 0x43B0D7E5

        def hashmix(value):
            nonlocal hash_const
            value ^= hash_const
            hash_const = hash_const * 0x931E8875 & _MASK32
            value = value * hash_const & _MASK32
            return value ^ value >> 16

        def mix(x, y):
            r = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
            return r ^ r >> 16

        pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in words[4:]:
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(word))
        # generate_state(4, uint64): eight 32-bit words, little end first.
        hash_const, state = 0x8B51F9DD, 0
        for i in range(8):
            value = pool[i % 4] ^ hash_const
            hash_const = hash_const * 0x58F38DED & _MASK32
            value = value * hash_const & _MASK32
            state |= (value ^ value >> 16) << (32 * i)
        words64 = [state >> (64 * k) & _MASK64 for k in range(4)]
        initstate, initseq = words64[0] << 64 | words64[1], words64[2] << 64 | words64[3]
        # pcg_setseq_128_srandom_r: step from 0, add initstate, step again.
        self._inc = (initseq << 1 | 1) & _MASK128
        self._state = ((self._inc + initstate) * _PCG_MULT + self._inc) & _MASK128

    def random(self) -> float:
        self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        s = self._state
        word, rot = (s >> 64 ^ s) & _MASK64, s >> 122
        word = (word >> rot | word << (-rot & 63)) & _MASK64
        return (word >> 11) * 2.0**-53

    def uniform(self, low: float, high: float) -> float:
        span = high - low
        if not math.isfinite(span):
            raise OverflowError("high - low range exceeds valid bounds")
        return low + span * self.random()


def _mollifier(xi):
    """(m, m') of m(xi) = exp(1 - 1/(1 - xi^2)) on |xi| < 1, both identically zero outside.

    One exp per node serves both values, computed in place in two node
    arrays besides xi.  Outside the interval w <= 0 makes the arithmetic
    overflow or divide by zero; only when some node lies there (or is NaN,
    or there are no nodes) are those nodes found and discarded.
    """
    xi = np.asarray(xi, dtype=float)
    w = np.empty_like(xi)
    e = np.empty_like(xi)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # w = 1 - xi^2
        np.square(xi, out=w)
        np.subtract(1.0, w, out=w)
        # w > 0 exactly when |xi| < 1; a NaN node compares false.
        all_inside = w.size > 0 and w.min() > 0.0
        # e = exp(1 - 1 / w)
        np.divide(1.0, w, out=e)
        np.subtract(1.0, e, out=e)
        np.exp(e, out=e)
        # e' = e * (-2 xi / w^2), in w's array.  Inside the interval
        # -2 (xi / w^2) is (-2 xi) / w^2 bit for bit: below |xi| = 1e-8 w is
        # exactly 1 and both are exact, and above it xi / w^2 is a normal
        # number, which doubles exactly.
        e_prime = w
        np.square(w, out=w)
        np.divide(xi, w, out=e_prime)
        np.multiply(-2.0, e_prime, out=e_prime)
        np.multiply(e, e_prime, out=e_prime)
    if all_inside:
        return e, e_prime
    inside = np.abs(xi) < 1.0
    return np.where(inside, e, 0.0), np.where(inside, e_prime, 0.0)


@dataclass(frozen=True)
class BumpTestFunction:
    """Tensorized compactly supported bump centered at (t0, x0) with radii (rt, rx).

    h(t, x) = m((t - t0) / rt) m((x - x0) / rx) with the mollifier m of
    _mollifier: the profile peaks at 1 in the center and vanishes with all
    derivatives on the boundary of the centered box.
    """

    t0: float
    x0: float
    rt: float
    rx: float

    def __post_init__(self):
        if not (self.rt > 0.0 and self.rx > 0.0):
            raise InvalidStateError("bump radii must be positive")

    def support(self) -> tuple[float, float, float, float]:
        """(t_lo, t_hi, x_lo, x_hi) bounding box of the support."""
        return (self.t0 - self.rt, self.t0 + self.rt, self.x0 - self.rx, self.x0 + self.rx)


@dataclass(frozen=True)
class SpacetimeQuadrature:
    """Composite tensor-product Gauss rule, applied between shock-aligned splits.

    order is the Gauss-Legendre point count per panel; panels subdivides each
    smooth subinterval in both directions.  weak_residuals always splits the
    support at the shocks (in time where one crosses a box edge, in space at
    every shock inside the box), so kinks of the integrand lie on subcell
    boundaries, which Gauss rules need to hold their order.
    """

    order: int = 8
    panels: int = 16

    def __post_init__(self):
        for name in ("order", "panels"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
                raise InvalidStateError(f"quadrature {name} must be a positive integer, got {value!r}")

    def rule(self):
        """Graded composite (nodes, weights) on [0, 1], shared by every rule of this order and panel count."""
        return _graded_rule(int(self.order), int(self.panels))


@functools.cache
def _graded_rule(order, panels):
    """Read-only composite Gauss (nodes, weights) on [0, 1] with cosine-graded panels.

    Built once per (order, panels).  The rule on [lo, hi] has the nodes
    lo + (hi - lo) * nodes and the weights (hi - lo) * weights.  Panel edges
    cluster at both interval ends, where the mollifier profiles are flat but
    only root-exponentially so; grading restores fast convergence there at
    no cost in the interior.
    """
    base_nodes, base_weights = np.polynomial.legendre.leggauss(order)
    edges = 0.5 * (1.0 - np.cos(np.pi * np.arange(panels + 1) / panels))
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    rule = ((mid[:, None] + half[:, None] * base_nodes).ravel(), (half[:, None] * base_weights).ravel())
    for arr in rule:
        arr.flags.writeable = False
    return rule


def _component_values(sol, components):
    """Per-region (U, F) constants of each requested law, shape (laws, regions, 2)."""
    for component in components:
        if component not in COMPONENTS:
            raise InvalidStateError(f"unknown component {component!r}")
    terms = [balance_terms(sol.model, state) for state in sol.states]
    return np.array(
        [[(U[k], F[k]) for U, F in terms] for k in map(COMPONENTS.index, components)]
    )


def _support_problem(sol, box):
    """Why the support box leaves the validity horizon or the domain, or None if it stays inside."""
    t_lo, t_hi, x_lo, x_hi = box
    if not (sol.horizon[0] <= t_lo and t_hi <= sol.horizon[1]):
        return "test-function support leaves the validity horizon"
    for t in (t_lo, t_hi):
        a, b = sol.endpoints(t)
        if not (a <= x_lo and x_hi <= b):
            return "test-function support leaves the solution domain"
    return None


def _time_cuts(sol, box):
    """Times where a shock crosses the support box edges (integrand corners)."""
    t_lo, t_hi, x_lo, x_hi = box
    cuts = {t_lo, t_hi}
    for i, v in enumerate(sol.shock_speeds):
        x0 = sol.shock_positions_t0[i]
        if v != 0.0:
            for edge in (x_lo, x_hi):
                tc = (edge - x0) / v
                if t_lo < tc < t_hi:
                    cuts.add(tc)
    return sorted(cuts)


def battery_residuals(
    sol: PiecewiseShockSolution,
    components,
    bumps,
    quad: SpacetimeQuadrature = SpacetimeQuadrature(),
) -> list[list[float]]:
    """Per bump, the spacetime residuals of the requested laws (see weak_residuals).

    The battery is evaluated in one pass, and each residual has the bits a
    battery of that bump alone gives.  A bad battery raises what evaluating
    its bumps one by one raises: the first bad bump's error, its support
    checked before the component names and its residuals checked for
    finiteness in component order.
    """
    boxes = [h.support() for h in bumps]
    problems = [_support_problem(sol, box) for box in boxes]
    n = next((j for j, problem in enumerate(problems) if problem), len(boxes))
    residuals = []
    if n:
        consts = _component_values(sol, components)
        # An overflowing product or sum becomes a non-finite total, refused below.
        with np.errstate(over="ignore", invalid="ignore"):
            residuals = _battery_totals(sol, consts, bumps[:n], boxes[:n], quad.rule())
        for per_law in residuals:
            for component, total in zip(components, per_law):
                if not math.isfinite(total):
                    raise NumericalError(f"non-finite {component} weak residual {total}")
    if n < len(boxes):
        raise DomainError(problems[n])
    return residuals


def _battery_totals(sol, consts, bumps, boxes, rule):
    """Per bump, the quadrature total of each law whose (U, F) constants consts holds."""
    nodes, weights = rule
    # The plan, in Python scalars.  A slab is a time interval between two
    # cuts; its breaks are the box edges and the shocks inside the box at
    # mid-slab.  A sub-region lies between two breaks, k being its place in
    # break order; a bound is (x, None) where fixed, (None, shock) where moving.
    slab_bump, slab_ta, slab_tb = [], [], []
    fixed, moving = [], []  # sub-regions (slab, k, lo, hi)
    for j, box in enumerate(boxes):
        t_lo, t_hi, x_lo, x_hi = box
        cuts = _time_cuts(sol, box)
        for ta, tb in zip(cuts, cuts[1:]):
            s = len(slab_bump)
            slab_bump.append(j)
            slab_ta.append(ta)
            slab_tb.append(tb)
            t_mid = 0.5 * (ta + tb)
            breaks = [(x_lo, None)]
            for i, (x, v) in enumerate(zip(sol.shock_positions_t0, sol.shock_speeds)):
                if x_lo < x + v * t_mid < x_hi:
                    breaks.append((None, i) if v else (x, None))
            breaks.append((x_hi, None))
            for k, (lo, hi) in enumerate(zip(breaks, breaks[1:])):
                (fixed if lo[1] is None and hi[1] is None else moving).append((s, k, lo, hi))
    n_fixed = len(fixed)
    subs = fixed + moving
    h_t0, h_x0, h_rt, h_rx = np.array([(h.t0, h.x0, h.rt, h.rx) for h in bumps]).T
    slab_bump = np.array(slab_bump)
    sub_slab = np.array([sub[0] for sub in subs])
    sub_bump = slab_bump[sub_slab]

    # Time factors of every slab, one row of time nodes per slab.
    ta = np.array(slab_ta)
    span = np.array(slab_tb) - ta
    ts = ta[:, None] + span[:, None] * nodes
    m_t, m_t_prime = _mollifier((ts - h_t0[slab_bump, None]) / h_rt[slab_bump, None])
    x0, speeds = np.array(sol.shock_positions_t0), np.array(sol.shock_speeds)
    shock_xs = x0[:, None] + speeds[:, None] * ts[:, None, :]

    def at_nodes(side):
        """Each sub-region's lo (side 2) or hi (side 3) bound at the time nodes of its slab."""
        bounds = [sub[side] for sub in subs]
        xs = np.empty((len(subs), len(nodes)))
        xs[:] = np.array([0.0 if x is None else x for x, _ in bounds])[:, None]
        at_shock = [r for r, (_, i) in enumerate(bounds) if i is not None]
        xs[at_shock] = shock_xs[sub_slab[at_shock], [bounds[r][1] for r in at_shock]]
        return xs

    lo, hi = at_nodes(2), at_nodes(3)
    length = hi - lo
    region = np.count_nonzero(shock_xs[sub_slab] < (0.5 * (lo + hi))[:, None, :], axis=1)

    # Space integrals A(t) of m(xi) and B(t) of m'(xi): one x-row per fixed
    # sub-region, all in one call, then one x-row per time node for the
    # moving sub-regions of each slab, one call per slab.
    sum_m = np.empty_like(length)
    sum_m_prime = np.empty_like(length)
    fixed_bump = sub_bump[:n_fixed, None]
    sum_m[:n_fixed], sum_m_prime[:n_fixed] = _space_sums(
        length[:n_fixed, :1], lo[:n_fixed, :1], h_x0[fixed_bump], h_rx[fixed_bump], rule
    )
    for _, group in itertools.groupby(range(n_fixed, len(subs)), key=lambda r: subs[r][0]):
        rows = list(group)
        block = slice(rows[0], rows[-1] + 1)
        h = bumps[sub_bump[rows[0]]]
        sum_m[block], sum_m_prime[block] = _space_sums(length[block], lo[block], h.x0, h.rx, rule)
    terms_a = consts[:, region, 0] * (m_t_prime[sub_slab] * (length * sum_m) / h_rt[sub_bump, None])
    terms_b = consts[:, region, 1] * (m_t[sub_slab] * (length * sum_m_prime) / h_rx[sub_bump, None])

    # One row per law and slab gathers U a + F b over the slab's
    # sub-regions in break order.
    accs = np.zeros((len(consts), len(slab_ta), len(nodes)))
    places = [sub[1] for sub in subs]
    for k in range(max(places) + 1):
        at_k = [r for r, place in enumerate(places) if place == k]
        accs[:, sub_slab[at_k]] += terms_a[:, at_k]
        accs[:, sub_slab[at_k]] += terms_b[:, at_k]
    # One dot per law and slab, each a (1, nt) @ (nt, 1) product: a
    # matrix-vector product would not sum in the same order.
    wts = span[:, None] * weights
    dots = (wts[:, None, :] @ accs[..., None])[..., 0, 0]
    totals = [[0.0] * len(consts) for _ in bumps]
    for j, per_law in zip(slab_bump.tolist(), dots.T.tolist()):
        row = totals[j]
        for m, d in enumerate(per_law):
            row[m] += d
    return totals


def _space_sums(length, lo, x0, rx, rule):
    """(A, B): the sums of m(xi) and m'(xi) over the x-nodes of each sub-region [lo, lo + length].

    Each is a (1, nq) or (nt, nq) product per sub-region, stacked along the
    leading axis.  The node arrays are freed on return, so one slab's are
    never alive next to the next one's.
    """
    nodes, weights = rule
    xi = (length / rx)[..., None] * nodes
    xi += ((lo - x0) / rx)[..., None]
    m_x, m_x_prime = _mollifier(xi)
    return m_x @ weights, m_x_prime @ weights


def weak_residuals(
    sol: PiecewiseShockSolution,
    components,
    h: BumpTestFunction,
    quad: SpacetimeQuadrature = SpacetimeQuadrature(),
) -> list[float]:
    """Spacetime residuals of the requested conservation laws against the bump h.

    A residual is zero up to quadrature error iff the candidate satisfies
    both the bulk equation and the jump condition of its component wherever
    h is supported.  This is the one-bump battery of battery_residuals.

    The bump is the product h = m(tau) m(xi) of tau = (t - t0) / rt and
    xi = (x - x0) / rx, so h_t = m'(tau) m(xi) / rt and
    h_x = m(tau) m'(xi) / rx, and each integrand is summed one axis at a
    time over the same tensor-product nodes.  Between consecutive time cuts
    the shocks inside the box are fixed, so every sub-region's x-breakpoints
    are linear in t: the time factors are evaluated once per slab, and the
    space integrals A(t) of m(xi) and B(t) of m'(xi) once per sub-region.
    A sub-region between fixed breaks (box edges, zero-speed shocks) has A
    and B constant in t and needs one row of x-nodes; only one bounded by a
    moving shock needs a row per time node.  Only the per-region constants
    (U, F) depend on the law, so A and B are shared by every component.

    A battery evaluates the node arrays of all its bumps together, but every
    sum keeps its per-bump shape, because BLAS sums a row of a stacked
    matrix-vector product in a different order than the row alone: each
    sub-region's row sums stay a (1, nq) or (nt, nq) product, each slab adds
    its sub-regions in break order, and each slab and law is one
    (1, nt) @ (nt, 1) dot, added to the bump's total in slab order.
    """
    return battery_residuals(sol, components, [h], quad)[0]


def standard_battery(
    sol: PiecewiseShockSolution, count: int = 20, seed: int = 0
) -> list[BumpTestFunction]:
    """Deterministic battery of bumps: half straddling shocks, half in the bulk.

    The draws are those of numpy's default_rng(seed), so every seed gives
    the bumps it always gave.  A bump that cannot fit inside the validity
    horizon and the domain over its time support is a DomainError.
    """
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InvalidStateError(f"battery seed must be a non-negative integer, got {seed!r}")
    rng = _UniformStream(seed)
    t_lo = max(sol.horizon[0], 0.0)
    t_hi = min(sol.horizon[1], 0.5)
    bumps = []
    n_shocks = max(len(sol.shock_speeds), 1)
    for j in range(count):
        rt = 0.06 + 0.06 * rng.random()
        lo, hi = t_lo + rt * 1.05, t_hi - rt * 1.05
        if hi < lo:
            raise DomainError(
                f"validity horizon [{t_lo}, {t_hi}] is shorter than a bump time support"
                f" of {2.1 * rt} (margins included)"
            )
        tc = rng.uniform(lo, hi)
        # The domain at both time edges of the box, so a material domain holds it too.
        (a0, b0), (a1, b1) = sol.endpoints(tc - rt), sol.endpoints(tc + rt)
        a, b = max(a0, a1), min(b0, b1)
        if not a < b:
            raise DomainError(
                "no interval stays inside the solution domain over the bump time support"
                f" [{tc - rt}, {tc + rt}]"
            )
        if j % 2 == 0 and sol.shock_speeds:
            i = (j // 2) % n_shocks
            xc = sol.shock_position(i, tc) + rng.uniform(-0.02, 0.02)
            if not a < xc < b:
                raise DomainError(f"shock {i} bump centre {xc} lies outside ({a}, {b}), the interval that"
                                  f" stays inside the domain over the time support [{tc - rt}, {tc + rt}]")
            rx = 0.1 + 0.15 * rng.random()
        else:
            xc = rng.uniform(a + 0.35 * (b - a), a + 0.65 * (b - a))
            rx = 0.08 + 0.1 * rng.random()
        rx = min(rx, 0.95 * (xc - a), 0.95 * (b - xc))
        bumps.append(BumpTestFunction(t0=tc, x0=xc, rt=rt, rx=rx))
    return bumps


def mass_integral(sol: PiecewiseShockSolution, lo: float, hi: float, t: float) -> float:
    """Exact integral of the density over [lo, hi] at time t."""
    if hi < lo:
        raise InvalidStateError("empty integration interval")
    bounds = sol.region_bounds(t)
    total = 0.0
    for i, state in enumerate(sol.states):
        seg_lo = max(lo, bounds[i])
        seg_hi = min(hi, bounds[i + 1])
        if seg_hi > seg_lo:
            total += state.rho * (seg_hi - seg_lo)
    return total


def moving_domain_mass_rate(sol: PiecewiseShockSolution, a, b) -> float:
    """d/dt at t = 0 of the mass between material endpoint trajectories a(t) and b(t).

    Vanishes exactly when every interior shock satisfies the mass jump
    condition; a violated condition shows up as minus its residual.  The
    rate is a central difference over t = +-1e-5; the endpoints must move
    with the local fluid velocity and stay clear of the shocks over that
    window.
    """
    step = 1e-5
    for t in (-step, 0.0, step):
        sol.require_in_horizon(t)
        for endpoint in (a, b):
            xe = endpoint(t)
            dom_a, dom_b = sol.endpoints(t)
            if not (dom_a <= xe <= dom_b):
                raise DomainError(f"audit endpoint {xe} outside the domain at t={t}")
            for i in range(len(sol.shock_speeds)):
                if abs(xe - sol.shock_position(i, t)) < 10.0 * step:
                    raise DomainError("audit endpoint collides with a shock trajectory")
    for endpoint in (a, b):
        xe = endpoint(0.0)
        speed_fd = (endpoint(step) - endpoint(-step)) / (2.0 * step)
        u_local = evaluate(sol, 0.0, xe).u
        if abs(speed_fd - u_local) > 1e-6 * max(1.0, abs(u_local)):
            raise InvalidStateError(
                f"endpoint at {xe} moves at {speed_fd}, local fluid velocity is {u_local}"
            )
    above = mass_integral(sol, a(step), b(step), step)
    below = mass_integral(sol, a(-step), b(-step), -step)
    return (above - below) / (2.0 * step)
