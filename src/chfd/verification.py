"""Numerical studies that check the solver's building blocks against theory.

Four studies:

* ``truncation_study`` — refinement rates of the long-stencil operators on
  smooth periodic functions with known derivatives.
* ``symbol_bound_study`` — the mode-wise defect of the fourth-order Laplacian
  symbol against the exact symbol: bounded by a uniform constant times
  h^4 k^6, and one-signed.
* ``inequality_study`` — randomized checks of the discrete norm inequalities
  the energy estimates rest on.
* ``convergence_study`` — the full time-stepper refinement study of the
  forced reference problem, which is defined here: the closed-form solution
  ``manufactured_solution``, its continuous forcing ``manufactured_source``
  and the stencil-built forcing ``manufactured_source_stencil`` that the
  study drives the stepper with.

Each study returns a report object with a deterministic ``to_csv``; repeated
runs with the same inputs produce byte-identical text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Sequence

import numpy as np

from .grid import (Field, GridMismatchError, GridSpec, _irfft2, _rfft2, field_from_fn,
                   norm_l2, norm_linf, norm_lp)
from .io import csv_line
from .operators import (_check, _laplace_long, _long_work, d1_long, grad_norm_sq_long,
                        grad_norm_sq_std, laplace_long, laplace_std)
from .psd import SolveStats
from .rng import unit_floats
from .scheme import SchemeParams, Source, ghost_init, step
from .spectral import hminus1_norm, make_plan

__all__ = [
    "RefinementRow",
    "RefinementReport",
    "TRUNCATION_CASES",
    "truncation_study",
    "SymbolBoundReport",
    "symbol_bound_study",
    "InequalityReport",
    "inequality_study",
    "random_trig_field",
    "manufactured_solution",
    "manufactured_source",
    "manufactured_source_stencil",
    "convergence_study",
]


# ---------------------------------------------------------------------------
# refinement reports


@dataclass(frozen=True)
class RefinementRow:
    h: float
    error_l2: float
    error_linf: float
    rate_l2: float | None  # log2(e(h) / e(h/2)) against the previous row
    rate_linf: float | None


@dataclass
class RefinementReport:
    """Rows of a halving study plus least-squares slopes over all rows."""

    parameters: dict
    rows: list[RefinementRow] = dataclass_field(default_factory=list)
    # per-level solver iteration statistics (convergence_study only)
    solve_stats: dict[int, list[SolveStats]] | None = None

    def regression_slopes(self) -> tuple[float, float]:
        """Least-squares slope of log2(error) vs log2(1/h), both norms."""
        if len(self.rows) < 2:
            raise ValueError("need at least 2 rows for a regression slope")
        x = np.log2([1.0 / r.h for r in self.rows])
        s2 = -np.polyfit(x, np.log2([r.error_l2 for r in self.rows]), 1)[0]
        si = -np.polyfit(x, np.log2([r.error_linf for r in self.rows]), 1)[0]
        return float(s2), float(si)

    def finest_rates(self, n_pairs: int = 2) -> list[tuple[float, float]]:
        """(rate_l2, rate_linf) of the last ``n_pairs`` consecutive pairs."""
        pairs = [(r.rate_l2, r.rate_linf) for r in self.rows if r.rate_l2 is not None]
        return pairs[-n_pairs:]

    def to_csv(self) -> str:
        s2, si = self.regression_slopes()
        return "".join(map(csv_line, [
            ("h", "error_l2", "rate_l2", "error_linf", "rate_linf"),
            *((r.h, r.error_l2, r.rate_l2, r.error_linf, r.rate_linf) for r in self.rows),
            ("regression", None, s2, None, si),
        ]))


def _rows_from_errors(levels: Sequence[tuple[float, float, float]]) -> list[RefinementRow]:
    rows = [RefinementRow(*levels[0], None, None)]
    for (_, prev2, previnf), (h, e2, einf) in zip(levels, levels[1:]):
        rows.append(RefinementRow(h, e2, einf, math.log2(prev2 / e2), math.log2(previnf / einf)))
    return rows


# ---------------------------------------------------------------------------
# truncation study


def _builtin_cases(L: float) -> dict[str, tuple[Callable, Callable, Callable]]:
    """Each case as (operator, f, exact): a long-stencil operator, a smooth
    periodic f(x, y) and the operator's analytic value on f.

    The one-dimensional cases are constant in y, where every stencil gives
    exactly 0; ``d1_long`` differentiates along x.
    """
    a = 2.0 * math.pi / L

    def sin_x(x, y):
        return np.sin(a * x)

    return {
        "sin_x": (laplace_long, sin_x, lambda x, y: -(a**2) * np.sin(a * x)),
        "sin_x_d1": (d1_long, sin_x, lambda x, y: a * np.cos(a * x)),
        "mode_product": (
            laplace_long,
            lambda x, y: np.sin(a * x) * np.cos(2 * a * y),
            lambda x, y: -5.0 * a**2 * np.sin(a * x) * np.cos(2 * a * y),
        ),
        "exp_sin": (
            laplace_long,
            lambda x, y: np.exp(np.sin(a * x)) * np.cos(a * y),
            lambda x, y: a**2
            * (np.cos(a * x) ** 2 - np.sin(a * x) - 1.0)
            * np.exp(np.sin(a * x))
            * np.cos(a * y),
        ),
        "exp_sin_d1": (
            d1_long,
            lambda x, y: np.exp(np.sin(a * x)),
            lambda x, y: a * np.cos(a * x) * np.exp(np.sin(a * x)),
        ),
    }


TRUNCATION_CASES = tuple(_builtin_cases(1.0))


def truncation_study(
    case: str,
    m_list: Sequence[int] = (32, 64, 128, 256),
    L: float = 1.0,
) -> RefinementReport:
    """Defect of the long-stencil operator against the analytic derivative.

    ``case`` names one of ``TRUNCATION_CASES``.  For each m: tau = (discrete
    op applied to sampled f) - (sampled analytic value); reports both norms of
    tau and the halving rates.
    """
    try:
        op, f, exact = _builtin_cases(L)[case]
    except KeyError:
        raise ValueError(f"unknown truncation case {case!r}; "
                         f"built-ins: {sorted(TRUNCATION_CASES)}") from None
    if len(m_list) < 2:
        raise ValueError("need at least 2 grid levels for a refinement study")
    levels = []
    for m in m_list:
        grid = GridSpec(L=L, m=m)
        tau = Field(grid, op(field_from_fn(grid, f)).values - field_from_fn(grid, exact).values)
        levels.append((grid.h, norm_l2(tau), norm_linf(tau)))
    return RefinementReport(
        parameters={"L": L, "case": case, "m_list": tuple(m_list)},
        rows=_rows_from_errors(levels),
    )


# ---------------------------------------------------------------------------
# symbol bound study


@dataclass
class SymbolBoundReport:
    rows: list[tuple[int, float, float]]  # (m, R, min_defect)

    def max_ratio(self) -> float:
        return max(r for _, r, _ in self.rows)

    def min_defect(self) -> float:
        return min(d for _, _, d in self.rows)

    def to_csv(self) -> str:
        return "".join(map(csv_line, [("m", "ratio_max", "defect_min"), *self.rows]))


def symbol_bound_study(L: float, m_list: Sequence[int]) -> SymbolBoundReport:
    """Mode-wise comparison of the fourth-order symbol with the exact -k^2.

    For each grid size reports R(m) = max_k |lambda_long(k) + k_phys^2| /
    (h^4 k_phys^6) over 1 <= k <= m/2 (bounded uniformly in m) and the
    minimum of the defect lambda_long(k) + k_phys^2 (which is one-signed:
    the discrete symbol never overshoots the exact one).
    """
    rows = []
    for m in m_list:
        if m < 8:
            raise ValueError("symbol study needs m >= 8")
        grid = GridSpec(L=L, m=m)
        plan = make_plan(grid)
        k = np.arange(1, m // 2 + 1)
        k_phys_sq = (2.0 * np.pi * k / L) ** 2
        defect = k_phys_sq - plan.Lambda_long[k, 0]  # Lambda_long[k, 0] = -lambda_long(k)
        ratio = defect / (grid.h**4 * k_phys_sq**3)
        rows.append((m, float(np.max(ratio)), float(np.min(defect))))
    return SymbolBoundReport(rows=rows)


# ---------------------------------------------------------------------------
# inequality study


def random_trig_field(
    grid: GridSpec, seed: int, index: int, mean_zero: bool = True
) -> Field:
    """Seeded random band-limited field (modes up to m/4, Gaussian weights).

    Built by spectrally truncating a white Gaussian field, which leaves exact
    trig polynomials smooth enough to sit well inside every regularity class
    the inequalities assume.  ``index`` selects a disjoint slice of the
    splitmix64 stream so trials are independent but reproducible.
    """
    n = grid.m**2
    u = unit_floats(seed, 2 * n, start=2 * n * index)
    # Box-Muller; shift u1 into (0, 1] so the log is finite
    z = np.sqrt(-2.0 * np.log(1.0 - u[:n])) * np.cos(2.0 * np.pi * u[n:])
    spec = _rfft2(z.reshape(grid.shape))
    band = grid.m // 4
    keep_x = np.abs(np.fft.fftfreq(grid.m, d=1.0 / grid.m)) <= band
    keep_y = np.arange(spec.shape[1]) <= band
    spec *= np.outer(keep_x, keep_y)
    if mean_zero:
        spec[0, 0] = 0.0
    return Field(grid, _irfft2(spec, grid.m))


@dataclass
class InequalityReport:
    n_trials: int
    # per-trial slacks/ratios, index-aligned
    slack_interpolation: list[float]
    slack_operator_order: list[float]
    embedding_ratio: list[float]
    violations: int

    def to_csv(self) -> str:
        return "".join(map(csv_line, [
            ("trial", "slack_interpolation", "slack_operator_order", "embedding_ratio"),
            *zip(range(self.n_trials), self.slack_interpolation, self.slack_operator_order,
                 self.embedding_ratio),
        ]))


def inequality_study(grid: GridSpec, n_trials: int, rng_seed: int) -> InequalityReport:
    """Randomized check of the three norm inequalities the analysis uses.

    Per trial records the slack (left-over margin, nonnegative when the
    inequality holds) of

    * the interpolation bound  |f|_2^2 <= |f|_-1 * |grad4 f|_2   on a
      mean-zero field,
    * the operator-order bound |lap2 f|_2 <= |lap4 f|_2          on a
      general field,

    and the Sobolev-embedding ratio |f|_6 / (|f|_2 + |grad f|_2), which is
    asserted bounded (across resolutions), not below any particular value.
    A violation is a slack below -1e-12 times the scale of its left side.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be at least 1")
    plan = make_plan(grid)
    slack_i: list[float] = []
    slack_o: list[float] = []
    ratios: list[float] = []
    violations = 0
    for i in range(n_trials):
        f0 = random_trig_field(grid, rng_seed, 2 * i, mean_zero=True)
        l2sq = norm_l2(f0) ** 2
        lhs = hminus1_norm(plan, f0) * math.sqrt(grad_norm_sq_long(f0))
        s = lhs - l2sq
        slack_i.append(s)
        if s < -1e-12 * l2sq:
            violations += 1

        g = random_trig_field(grid, rng_seed, 2 * i + 1, mean_zero=False)
        lap4 = norm_l2(laplace_long(g))
        lap2 = norm_l2(laplace_std(g))
        s = lap4 - lap2
        slack_o.append(s)
        if s < -1e-12 * lap4:
            violations += 1

        ratios.append(norm_lp(f0, 6) / (norm_l2(f0) + math.sqrt(grad_norm_sq_std(f0))))
    return InequalityReport(
        n_trials=n_trials,
        slack_interpolation=slack_i,
        slack_operator_order=slack_o,
        embedding_ratio=ratios,
        violations=violations,
    )


# ---------------------------------------------------------------------------
# the forced reference problem and the time-stepper convergence study


def manufactured_solution(L: float) -> Callable[[np.ndarray, np.ndarray, float], np.ndarray]:
    """Closed-form reference field (1/2pi) sin(ax) cos(ay) cos(t), a = 2 pi / L."""
    a = 2.0 * np.pi / L
    amp = 1.0 / (2.0 * np.pi)

    def phi_e(x: np.ndarray, y: np.ndarray, t: float) -> np.ndarray:
        return amp * np.sin(a * x) * np.cos(a * y) * np.cos(t)

    return phi_e


def manufactured_source(eps: float, L: float) -> Source:
    """Forcing that makes ``manufactured_solution`` solve the forced equation.

    S = phi_t - lap(phi^3) + lap(phi) + eps^2 lap^2(phi), in closed form via
    lap(u^3) = 3 u^2 lap(u) + 6 u |grad u|^2 and lap(phi) = -2 a^2 phi.
    """
    a = 2.0 * np.pi / L
    amp = 1.0 / (2.0 * np.pi)

    def S(x: np.ndarray, y: np.ndarray, t: float) -> np.ndarray:
        sx, cx = np.sin(a * x), np.cos(a * x)
        sy, cy = np.sin(a * y), np.cos(a * y)
        ct, st = np.cos(t), np.sin(t)
        phi = amp * sx * cy * ct
        grad_sq = (a * amp) ** 2 * ct**2 * (cx**2 * cy**2 + sx**2 * sy**2)
        lap_phi = -2.0 * a**2 * phi
        lap_phi3 = 3.0 * phi**2 * lap_phi + 6.0 * phi * grad_sq
        dphi_dt = -amp * sx * cy * st
        return dphi_dt - lap_phi3 + lap_phi + eps**2 * (4.0 * a**4 * phi)

    return S


def manufactured_source_stencil(eps: float, grid: GridSpec) -> Source:
    """Forcing built with the long-stencil Laplacian instead of the continuous one.

    S_h(t) = dphi_ref/dt - lap4[phi_ref^3 - phi_ref - eps^2 lap4 phi_ref],
    evaluated on ``grid``, where phi_ref is ``manufactured_solution(grid.L)``.
    With this forcing the sampled reference field solves the space-discretized
    equation exactly, so a refinement study driven by it isolates the time
    stepper.  That matters here: the reference state sits inside the
    anti-diffusive band of the linearization (modes with k^2 < 1/eps^2 grow
    like e^{(k^2 - eps^2 k^4) t}), and with the continuous closed-form source
    the h^4 stencil defect on the cubic term's third harmonics is amplified by
    roughly e^{T/(4 eps^2)}, burying the scheme's own accuracy.

    The returned source is bound to ``grid``: sampled at other points than its
    cell centers, it raises GridMismatchError.  It computes in work buffers it
    allocates once for ``grid``, so one source is not reentrant; each call
    returns a new array, the bits of ``-sin(t) envelope - laplace_long(mu)``.
    """
    exact = manufactured_solution(grid.L)
    centers = grid.cell_centers()
    envelope = field_from_fn(grid, lambda x, y: exact(x, y, 0.0)).values
    _check(Field(grid, envelope), 2)
    fields = tuple(np.empty(grid.shape) for _ in range(3))
    work = _long_work(grid.shape)

    def S(x: np.ndarray, y: np.ndarray, t: float) -> np.ndarray:
        if not (np.array_equal(x, centers[:, None]) and np.array_equal(y, centers[None, :])):
            raise GridMismatchError(f"the stencil forcing of {grid} sampled off its cell centers")
        u, mu, lap = fields
        np.multiply(envelope, np.cos(t), out=u)
        # mu = u * u * u - u - eps**2 * laplace_long(u), in place
        _laplace_long(u, grid.h, out=lap, work=work)
        lap *= eps**2
        np.multiply(u, u, out=mu)
        mu *= u
        mu -= u
        mu -= lap
        _laplace_long(mu, grid.h, out=lap, work=work)
        out = np.multiply(-np.sin(t), envelope)
        out -= lap
        return out

    return S


# The forced problem every level of the refinement study solves, at the
# default solver settings.
CONVERGENCE_L = 3.2
CONVERGENCE_EPS = 0.1
CONVERGENCE_T = 0.32
CONVERGENCE_A = 1.0 / 16.0


def convergence_study(
    m_list: Sequence[int] = (16, 32, 64, 128),
    dt_factor: float = 0.25,
) -> RefinementReport:
    """Refinement study of the full scheme against the reference solution.

    Each level solves the problem fixed by the ``CONVERGENCE_*`` constants up
    to T with dt = dt_factor * h^2 (quadratic refinement path), forced by the
    stencil-built source so the sampled reference field solves the
    space-discretized equation exactly and the measured error isolates the
    time stepper; errors are sampled at the cell centers at the final time.
    dt_factor = 1/4 keeps every level's error within a small
    multiple of the scheme's asymptotic constant (the reference state sits in
    the anti-diffusive band, so time-truncation noise is amplified by a
    resolution-independent factor; see ``manufactured_source_stencil``).

    The report carries per-level ``solve_stats`` so solver behavior over the
    run is inspectable.  Bad arguments raise ValueError before the first
    level runs, a level that takes no step among them (its error is 0).
    """
    if len(m_list) < 2:
        raise ValueError(f"need at least 2 grid sizes for a refinement study, got {list(m_list)!r}")
    if not all(isinstance(m, (int, np.integer)) and not isinstance(m, bool) and m >= 5
               for m in m_list):
        raise ValueError(f"grid sizes must be integers >= 5, got {list(m_list)!r}")
    if not (math.isfinite(dt_factor) and dt_factor > 0):
        raise ValueError(f"dt_factor must be finite and positive, got {dt_factor!r}")
    for m in m_list:
        dt = dt_factor * GridSpec(L=CONVERGENCE_L, m=m).h ** 2
        if round(CONVERGENCE_T / dt) < 1:
            raise ValueError(f"m={m}: dt = {dt!r} takes no step to T = {CONVERGENCE_T!r}")
    L, eps, T, A = CONVERGENCE_L, CONVERGENCE_EPS, CONVERGENCE_T, CONVERGENCE_A
    exact = manufactured_solution(L)
    levels = []
    stats: dict[int, list[SolveStats]] = {}
    for grid in (GridSpec(L=L, m=m) for m in m_list):
        dt = dt_factor * grid.h**2
        n_steps = round(T / dt)
        params = SchemeParams(eps=eps, dt=dt, A=A)
        plan = make_plan(grid)
        source = manufactured_source_stencil(eps, grid)
        phi0 = field_from_fn(grid, lambda x, y: exact(x, y, 0.0))
        state = ghost_init(phi0, params, source=source)
        level_stats: list[SolveStats] = []
        for _ in range(n_steps):
            state, diag = step(state, params, plan, source=source)
            level_stats.append(diag.solve)
        ref = field_from_fn(grid, lambda x, y: exact(x, y, state.t))
        err = Field(grid, state.phi_curr.values - ref.values)
        levels.append((grid.h, norm_l2(err), norm_linf(err)))
        stats[grid.m] = level_stats
    return RefinementReport(
        parameters={
            "L": L,
            "eps": eps,
            "T": T,
            "dt_factor": dt_factor,
            "A": A,
            "m_list": tuple(m_list),
        },
        rows=_rows_from_errors(levels),
        solve_stats=stats,
    )
