import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpagg.reference import ring_spectrum
from ldpagg.topology import (STRUCT_TOL, from_matrix, ring_topology,
                             trivial_topology, validate)


def contraction(t):
    """The contraction residual that from_matrix stored with t."""
    return {name: res for name, _, res in t.conditions}["contraction norm < 1"]


def circulant_eigs(m, w):
    """Independent oracle: eigenvalues of the ring weight matrix via a
    dense nonsymmetric eigensolve on the explicitly built circulant."""
    W = np.zeros((m, m))
    for i in range(m):
        W[i, (i + 1) % m] += w
        W[i, (i - 1) % m] += w
    np.fill_diagonal(W, -W.sum(axis=1) + np.diag(W))
    return np.sort(np.linalg.eigvals(W).real)


class TestRing:
    def test_five_ring(self):
        t = ring_topology(5, 0.3)
        assert np.allclose(np.diag(t.weights), -0.6)
        assert t.w_bar == pytest.approx(0.6)
        assert all(passed for _, passed, _ in validate(t.weights)[0])

    def test_two_agent_matrix(self):
        t = ring_topology(2, 0.3)
        assert np.allclose(t.weights, [[-0.3, 0.3], [0.3, -0.3]])

    def test_rho2_against_eigensolver_oracle(self):
        t = ring_topology(5, 0.3)
        eigs = circulant_eigs(5, 0.3)
        assert t.rho2_abs == pytest.approx(abs(eigs[-2]), abs=1e-12)

    def test_contraction_norm_value(self):
        # 1 - |rho2| for the symmetric ring; ~0.5854 for (5, 0.3)
        t = ring_topology(5, 0.3)
        assert contraction(t) == pytest.approx(0.5854, abs=1e-3)

    def test_rejects_bad_weight(self):
        with pytest.raises(ValueError):
            ring_topology(4, 0.5)
        with pytest.raises(ValueError):
            ring_topology(5, 0.0)
        with pytest.raises(ValueError):
            ring_topology(1, 0.3)

    def test_spectrum_closed_form(self):
        t = ring_topology(7, 0.2)
        eigs = np.sort(np.linalg.eigvalsh(np.asarray(t.weights)))
        assert np.allclose(eigs, ring_spectrum(7, 0.2), atol=1e-9)


class TestTrivial:
    def test_single_agent(self):
        t = trivial_topology()
        assert t.m == 1
        assert t.weights[0, 0] == 0.0
        assert t.w_bar == 0.0
        assert contraction(t) == 0.0
        assert not t.weights.flags.writeable

    def test_rho2_convention(self):
        assert trivial_topology().rho2_abs == 1.0


def failed(W):
    """The failed conditions of W, as {name: residual}."""
    return {name: res for name, passed, res in validate(W)[0] if not passed}


class TestValidate:
    def test_zero_matrix_fails_contraction(self):
        fails = failed(np.zeros((3, 3)))
        assert list(fails) == ["contraction norm < 1"]
        assert fails["contraction norm < 1"] == pytest.approx(1.0)

    def test_nonzero_column_sum_fails(self):
        W = np.array([[-0.3, 0.3], [0.4, -0.3]])
        fails = failed(W)
        assert "column sums zero" in fails
        assert fails["column sums zero"] > 1e-9

    def test_spectral_data_only_for_valid_matrix(self):
        with pytest.raises(ValueError):
            from_matrix(np.zeros((3, 3)))
        t = from_matrix(np.asarray(ring_topology(4, 0.2).weights))
        assert t.rho2_abs == pytest.approx(0.4) and t.w_bar == pytest.approx(0.4)

    def test_from_matrix_raises_with_condition_names(self):
        with pytest.raises(ValueError, match="contraction"):
            from_matrix(np.zeros((3, 3)))

    @pytest.mark.parametrize("W, message", [
        (np.zeros((0, 0)), "nonempty square matrix"),
        (np.zeros((2, 3)), "nonempty square matrix"),
        (np.zeros(3), "nonempty square matrix"),
        ([[-0.3, 0.3], [0.3, np.nan]], "finite entries"),
        ([[-0.3, 0.3], [0.3, np.inf]], "finite entries"),
    ], ids=["empty", "non-square", "vector", "nan", "inf"])
    def test_rejects_empty_or_non_square(self, W, message):
        # a non-finite entry is rejected before the eigensolver, which
        # returns NaN-free eigenvalues for some NaN matrices
        for check in (validate, from_matrix):
            with pytest.raises(ValueError, match=message):
                check(np.asarray(W))


@settings(max_examples=40, deadline=None)
@given(m=st.integers(2, 20), w=st.floats(0.05, 0.45))
def test_ring_invariants(m, w):
    t = ring_topology(m, w)
    W = np.asarray(t.weights)
    assert np.max(np.abs(W.sum(axis=0))) < 1e-9
    assert np.max(np.abs(W.sum(axis=1))) < 1e-9
    assert contraction(t) < 1.0
    eigs = np.sort(np.linalg.eigvalsh(W))
    assert np.allclose(eigs, ring_spectrum(m, w), atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(m=st.integers(2, 20), w=st.floats(0.05, 0.25))
def test_contraction_vs_spectral_gap(m, w):
    # the bound ||I + W - 11^T/m|| <= 1 - |rho2| (equality for symmetric
    # rings) needs the most negative eigenvalue to stay above |rho2| - 2,
    # which holds on rings for w <= 1/4; larger edge weights break it
    # while the topology itself stays valid
    t = ring_topology(m, w)
    assert contraction(t) <= 1.0 - t.rho2_abs + 1e-12
    assert contraction(t) == pytest.approx(1.0 - abs(ring_spectrum(m, w)[-2]),
                                           rel=0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 6), w=st.floats(0.05, 0.45),
       i=st.integers(0, 5), j=st.integers(0, 5),
       bump=st.sampled_from([0.0, 1e-12, 1e-3, -0.5, 0.5]))
def test_from_matrix_raises_exactly_on_failed_condition(m, w, i, j, bump):
    # a ring (zero matrix for m = 1) with one entry bumped: from_matrix
    # raises exactly when a listed condition fails, and otherwise carries
    # the spectral data of W
    W = np.asarray(ring_topology(m, w).weights).copy() if m > 1 else np.zeros((1, 1))
    W[i % m, j % m] += bump
    if failed(W):
        with pytest.raises(ValueError, match="invalid weight matrix"):
            from_matrix(W)
        return
    t = from_matrix(W)
    eigs = np.linalg.eigvalsh(W)
    assert t.rho2_abs == (abs(eigs[-2]) if m > 1 else 1.0)
    assert t.w_bar == np.min(np.abs(np.diag(W)))


@settings(max_examples=100, deadline=None)
@given(m=st.integers(2, 8), k=st.integers(0, 7), seed=st.integers(0, 2**32 - 1),
       density=st.floats(0.2, 1.0))
def test_isolated_agent_fails_contraction_only(m, k, seed, density):
    # symmetric, zero-sum, nonnegative off the diagonal, with agent k cut
    # off: e_k - 1/m is a fixed vector of I + W - 11^T/m, so the
    # contraction condition, and only it, fails and from_matrix rejects W
    rng = np.random.default_rng(seed)
    A = np.triu(rng.uniform(0.0, 0.4, (m, m)) * (rng.random((m, m)) < density), 1)
    W = A + A.T
    W[k % m, :] = W[:, k % m] = 0.0
    np.fill_diagonal(W, -W.sum(axis=1))
    fails = failed(W)
    assert list(fails) == ["contraction norm < 1"]
    assert fails["contraction norm < 1"] >= 1.0 - 1e-12
    with pytest.raises(ValueError, match="contraction"):
        from_matrix(W)


@settings(max_examples=100, deadline=None)
@given(m=st.integers(1, 8), k=st.integers(-1, 7), seed=st.integers(0, 2**32 - 1),
       density=st.floats(0.0, 1.0), scale=st.sampled_from([0.1, 0.4, 1.0]))
def test_contraction_equals_svd_oracle(m, k, seed, density, scale):
    # symmetric, zero-sum, nonnegative off the diagonal (agent k cut off
    # when k >= 0, as in test_isolated_agent_fails_contraction_only): the
    # eigenvalue residual is the SVD norm of I + W - 11^T/m, so each
    # condition passes or fails as it would with the SVD residual
    rng = np.random.default_rng(seed)
    A = np.triu(rng.uniform(0.0, scale, (m, m)) * (rng.random((m, m)) < density), 1)
    W = A + A.T
    if k >= 0:
        W[k % m, :] = W[:, k % m] = 0.0
    np.fill_diagonal(W, -W.sum(axis=1))
    conditions, lam = validate(W)
    svd = np.linalg.norm(np.eye(m) + W - np.ones((m, m)) / m, 2)  # the oracle
    assert conditions[3][0] == "contraction norm < 1"
    assert conditions[3][2] == pytest.approx(svd, rel=0, abs=1e-12)
    assert np.array_equal(lam, np.linalg.eigvalsh(W))
    with_svd = [passed if name != "contraction norm < 1" else svd < 1.0 - STRUCT_TOL
                for name, passed, _ in conditions]
    assert [passed for _, passed, _ in conditions] == with_svd
