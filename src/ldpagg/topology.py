"""Communication graphs and their consensus weight matrices.

The weight convention is the "zero-sum" one: w_ij > 0 on edges,
w_ii = -sum_j w_ij, so both row and column sums of W vanish and
I + W acts as a doubly stochastic mixing matrix on connected graphs.
validate reports the five structural conditions on a candidate W; they
are written once, in ValidationReport.conditions, and its ok reads them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

STRUCT_TOL = 1e-9


@dataclass(frozen=True)
class NetworkTopology:
    """Validated symmetric consensus weight matrix plus derived spectral data.

    rho2_abs is |second-largest eigenvalue of W| (algebraic ordering);
    w_bar is min_i |w_ii|. Instances are immutable and safe to share.
    """

    m: int
    weights: np.ndarray
    neighbor_sets: tuple
    rho2_abs: float
    w_bar: float
    contraction_norm: float

    def __post_init__(self):
        self.weights.setflags(write=False)


@dataclass
class ValidationReport:
    """Per-condition pass/fail with measured residuals for a candidate W."""

    m: int
    row_sum_residual: float
    col_sum_residual: float
    symmetry_residual: float
    contraction_norm: float
    offdiag_nonneg: bool
    rho2_abs: float | None = None
    w_bar: float | None = None

    def conditions(self):
        return [
            ("row sums zero", self.row_sum_residual < STRUCT_TOL, self.row_sum_residual),
            ("column sums zero", self.col_sum_residual < STRUCT_TOL, self.col_sum_residual),
            ("symmetric", self.symmetry_residual < STRUCT_TOL, self.symmetry_residual),
            ("contraction norm < 1", self.contraction_norm < 1.0 - STRUCT_TOL, self.contraction_norm),
            ("off-diagonal entries nonnegative", self.offdiag_nonneg, 0.0),
        ]

    @property
    def ok(self) -> bool:
        """Whether W meets every condition."""
        return all(passed for _, passed, _ in self.conditions())


def _spectral(W: np.ndarray):
    """Return (rho2_abs, contraction_norm) from a dense symmetric eigensolve."""
    m = W.shape[0]
    eigs = np.linalg.eigvalsh(W)  # ascending
    # second largest by algebraic value; m = 1 has no second eigenvalue
    rho2_abs = abs(eigs[-2]) if m > 1 else 1.0
    ones = np.ones((m, m)) / m
    contraction = np.linalg.norm(np.eye(m) + W - ones, 2)
    return rho2_abs, contraction


def validate(W: np.ndarray) -> ValidationReport:
    """Check a square matrix against the structural graph-weight conditions.

    Report-style: never raises on a bad matrix; rho2_abs / w_bar are filled
    in only when all conditions pass.
    """
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise ValueError("W must be a square matrix")
    m = W.shape[0]
    row_res = float(np.max(np.abs(W.sum(axis=1)))) if m else 0.0
    col_res = float(np.max(np.abs(W.sum(axis=0)))) if m else 0.0
    sym_res = float(np.max(np.abs(W - W.T)))
    offdiag = W.copy()
    np.fill_diagonal(offdiag, 0.0)
    offdiag_ok = bool(np.all(offdiag >= 0.0))
    rho2_abs, contraction = _spectral(W)
    report = ValidationReport(
        m=m,
        row_sum_residual=row_res,
        col_sum_residual=col_res,
        symmetry_residual=sym_res,
        contraction_norm=contraction,
        offdiag_nonneg=offdiag_ok,
    )
    if report.ok:
        report.rho2_abs = rho2_abs
        report.w_bar = float(np.min(np.abs(np.diag(W))))
    return report


def from_matrix(W: np.ndarray) -> NetworkTopology:
    """Build a topology from an explicit weight matrix, or raise if invalid."""
    W = np.array(W, dtype=float)
    report = validate(W)
    if not report.ok:
        failed = [name for name, passed, _ in report.conditions() if not passed]
        raise ValueError(f"invalid weight matrix: failed {failed}")
    m = report.m
    neighbors = tuple(
        frozenset(int(j) for j in range(m) if j != i and W[i, j] > 0.0) for i in range(m)
    )
    if m >= 2 and any(len(ns) == 0 for ns in neighbors):
        raise ValueError("every agent must have at least one neighbor (connectivity)")
    return NetworkTopology(
        m=m,
        weights=W,
        neighbor_sets=neighbors,
        rho2_abs=report.rho2_abs,
        w_bar=report.w_bar,
        contraction_norm=report.contraction_norm,
    )


def ring_topology(m: int, w: float) -> NetworkTopology:
    """Ring of m agents with edge weight w on each of the two ring edges.

    Requires m >= 2 and w in (0, 1/2); w >= 1/2 breaks the contraction
    condition on even rings and is rejected uniformly.
    """
    if m < 2:
        raise ValueError("ring requires m >= 2 (use trivial_topology for m = 1)")
    if not (0.0 < w < 0.5):
        raise ValueError(f"ring edge weight must lie in (0, 1/2), got {w}")
    W = np.zeros((m, m))
    for i in range(m):
        W[i, (i + 1) % m] = w
        W[i, (i - 1) % m] = w
    np.fill_diagonal(W, -W.sum(axis=1))
    return from_matrix(W)


def trivial_topology() -> NetworkTopology:
    """Single-agent degenerate topology: W = [0], no consensus dynamics.

    rho2_abs is 1 by convention (there is no second eigenvalue) and
    w_bar is 0; the sensitivity recursion is not meaningful for m = 1.
    """
    return from_matrix(np.zeros((1, 1)))
