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


def validate(W: np.ndarray) -> list:
    """The structural conditions on a nonempty square matrix, as (name,
    passed, residual) triples. Report-style: raises only on a bad shape."""
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[0] != W.shape[1] or W.size == 0:
        raise ValueError("W must be a nonempty square matrix")
    m = W.shape[0]
    row_res = float(np.max(np.abs(W.sum(axis=1))))
    col_res = float(np.max(np.abs(W.sum(axis=0))))
    sym_res = float(np.max(np.abs(W - W.T)))
    offdiag = W.copy()
    np.fill_diagonal(offdiag, 0.0)
    contraction = np.linalg.norm(np.eye(m) + W - np.ones((m, m)) / m, 2)
    return [
        ("row sums zero", row_res < STRUCT_TOL, row_res),
        ("column sums zero", col_res < STRUCT_TOL, col_res),
        ("symmetric", sym_res < STRUCT_TOL, sym_res),
        ("contraction norm < 1", contraction < 1.0 - STRUCT_TOL, contraction),
        ("off-diagonal entries nonnegative", bool(np.all(offdiag >= 0.0)), 0.0),
    ]


def from_matrix(W: np.ndarray) -> NetworkTopology:
    """Build a topology from an explicit weight matrix, or raise if invalid."""
    W = np.array(W, dtype=float)
    conditions = validate(W)
    failed = [name for name, passed, _ in conditions if not passed]
    if failed:
        raise ValueError(f"invalid weight matrix: failed {failed}")
    m = W.shape[0]
    return NetworkTopology(
        m=m,
        weights=W,
        neighbor_sets=tuple(frozenset(j for j in range(m) if j != i and W[i, j] > 0.0)
                            for i in range(m)),
        # second largest eigenvalue by algebraic value; m = 1 has none
        rho2_abs=abs(np.linalg.eigvalsh(W)[-2]) if m > 1 else 1.0,
        w_bar=float(np.min(np.abs(np.diag(W)))),
        contraction_norm=conditions[3][2],  # "contraction norm < 1"
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
    """Single-agent degenerate topology: W = [0], no consensus dynamics
    (w_bar is 0, so the sensitivity recursion is not meaningful)."""
    return from_matrix(np.zeros((1, 1)))
