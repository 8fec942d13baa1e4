"""Communication graphs and their consensus weight matrices.

The weight convention is the "zero-sum" one: w_ij > 0 on edges,
w_ii = -sum_j w_ij, so both row and column sums of W vanish and
I + W acts as a doubly stochastic mixing matrix on connected graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

STRUCT_TOL = 1e-9


@dataclass(frozen=True)
class NetworkTopology:
    """Validated symmetric consensus weight matrix plus derived spectral data.

    rho2_abs is |second-largest eigenvalue of W| (algebraic ordering);
    w_bar is min_i |w_ii|; conditions holds validate(W)'s five triples,
    all passed. Instances are immutable and safe to share.
    """

    m: int
    weights: np.ndarray
    rho2_abs: float
    w_bar: float
    conditions: tuple

    def __post_init__(self):
        self.weights.setflags(write=False)


def validate(W: np.ndarray):
    """The structural conditions on a nonempty square matrix of finite
    entries, as (name, passed, residual) triples, and W's eigenvalues in
    ascending order. Report-style: raises only on a bad shape or a
    non-finite entry. The contraction residual is max |1 + lambda_i| over
    all but the largest eigenvalue (0 for m = 1). Under the other four
    conditions W is minus a weighted graph Laplacian, whose largest
    eigenvalue, 0, belongs to the constant vector, so the residual is
    ||I + W - 11^T/m||_2; when another condition fails (and from_matrix
    rejects W), it is just the formula's value.
    """
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[0] != W.shape[1] or W.size == 0:
        raise ValueError("W must be a nonempty square matrix")
    if not np.all(np.isfinite(W)):
        raise ValueError("W must have finite entries")
    row_res = float(np.max(np.abs(W.sum(axis=1))))
    col_res = float(np.max(np.abs(W.sum(axis=0))))
    sym_res = float(np.max(np.abs(W - W.T)))
    offdiag = W.copy()
    np.fill_diagonal(offdiag, 0.0)
    lam = np.linalg.eigvalsh(W)
    contraction = float(np.max(np.abs(1.0 + lam[:-1]), initial=0.0))
    return (
        ("row sums zero", row_res < STRUCT_TOL, row_res),
        ("column sums zero", col_res < STRUCT_TOL, col_res),
        ("symmetric", sym_res < STRUCT_TOL, sym_res),
        ("contraction norm < 1", contraction < 1.0 - STRUCT_TOL, contraction),
        ("off-diagonal entries nonnegative", bool(np.all(offdiag >= 0.0)), 0.0),
    ), lam


def from_matrix(W: np.ndarray) -> NetworkTopology:
    """Build a topology from an explicit weight matrix, or raise if invalid."""
    W = np.array(W, dtype=float)
    conditions, lam = validate(W)
    failed = [name for name, passed, _ in conditions if not passed]
    if failed:
        raise ValueError(f"invalid weight matrix: failed {failed}")
    return NetworkTopology(
        m=W.shape[0],
        weights=W,
        # second largest eigenvalue by algebraic value; m = 1 has none
        rho2_abs=abs(lam[-2]) if lam.size > 1 else 1.0,
        w_bar=float(np.min(np.abs(np.diag(W)))),
        conditions=conditions,
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
    i = np.arange(m)
    W[i, (i + 1) % m] = W[i, (i - 1) % m] = w
    np.fill_diagonal(W, -W.sum(axis=1))
    return from_matrix(W)


def trivial_topology() -> NetworkTopology:
    """Single-agent degenerate topology: W = [0], no consensus dynamics
    (w_bar is 0, so the sensitivity recursion is not meaningful)."""
    return from_matrix(np.zeros((1, 1)))
