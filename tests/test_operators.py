"""Operator correctness: adjoints, orthonormality, spectra, validation."""

import hashlib
import importlib
import pkgutil

import numpy as np
import pytest
import scipy.linalg

import adl1
from adl1.errors import DimensionMismatchError
from adl1.operators import (
    AugmentedOperator,
    DenseOperator,
    PartialDCTOperator,
    PartialWalshHadamardOperator,
    estimate_lambda_max,
    fwht,
    make_operator,
    stack_operators,
)
from adl1.solvers import CountingOperator

from oracles import fwht_butterfly, materialize


def _complex(rng, size):
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def _operator_zoo(rng):
    ops = [
        DenseOperator(_complex(rng, (7, 15))),
        DenseOperator(rng.standard_normal((4, 9))),
        make_operator("wht", 64, 20, rng),
        make_operator("dct", 50, 17, rng),
        make_operator("orthgauss", 14, 6, rng),
    ]
    ops.append(AugmentedOperator(ops[2], 0.7))
    ops.append(AugmentedOperator(ops[0], 1.3))
    return ops


def test_adjoint_pairing_holds_for_every_kind(rng):
    # <A u, v> must equal <u, A* v> in the complex inner product.
    for op in _operator_zoo(rng):
        scale = max(1.0, op.lambda_max() if op.orthonormal_rows else 1.0)
        for _ in range(100):
            u = _complex(rng, op.n)
            v = _complex(rng, op.m)
            lhs = np.vdot(v, op.apply(u))
            rhs = np.vdot(op.adjoint(v), u)
            bound = 1e-10 * scale * np.linalg.norm(u) * np.linalg.norm(v)
            assert abs(lhs - rhs) <= bound, op.kind


def test_orthonormal_rows_flag_is_truthful(rng):
    for op in _operator_zoo(rng):
        y = _complex(rng, op.m)
        err = np.linalg.norm(op.apply(op.adjoint(y)) - y) / np.linalg.norm(y)
        if op.orthonormal_rows:
            assert err < 1e-12, op.kind
        else:
            assert err > 1e-6, op.kind


def test_fwht_matches_sylvester_matrix(rng):
    n = 16
    h = scipy.linalg.hadamard(n)
    x = _complex(rng, n)
    assert np.allclose(fwht(x), h @ x, atol=1e-12 * n)


def test_fwht_basis_and_involution(rng):
    # H e_0 is the all-ones row; H(Hx) = n x.
    n = 32
    e0 = np.zeros(n, dtype=np.complex128)
    e0[0] = 1.0
    assert np.array_equal(fwht(e0), np.ones(n, dtype=np.complex128))
    x = _complex(rng, n)
    assert np.allclose(fwht(fwht(x)), n * x, atol=1e-10)


@pytest.mark.parametrize("e", range(17))
def test_fwht_matches_butterfly_oracle(e, rng):
    # Each output of either kernel is a signed sum of all n inputs. The
    # butterfly rounds it through e additions; the factored kernel through
    # one length-f dot product per factor, f <= 16 over ceil(e / 4) factors,
    # so at most 4 (e + 3) roundings. Their difference is thus within
    # (5 e + 12) eps sum|x| per real component.
    n = 1 << e
    z = _complex(rng, 2 * n)[::2]  # a strided, non-contiguous view
    for x in (z, z.copy(), z.real.copy()):
        before = x.copy()
        got = fwht(x)
        want = fwht_butterfly(x)
        assert got.dtype == (np.complex128 if np.iscomplexobj(x) else np.float64)
        assert got.shape == (n,)
        tol = (5 * e + 12) * np.finfo(np.float64).eps * np.sum(np.abs(x.real) + np.abs(x.imag))
        assert np.max(np.abs(got - want)) <= tol
        assert np.array_equal(x, before)


# fwht transforms the last axis, so a 2-D array is refused only for a
# last axis of non-power-of-two length, or when it holds no entries.
@pytest.mark.parametrize("bad", [np.zeros(3), np.ones(6, np.complex128), np.ones(1000),
                                 np.zeros(0), np.zeros((4, 6)), np.zeros((0, 4)),
                                 np.float64(1.0)],
                         ids=["n3", "n6", "n1000", "empty", "2d", "2d-empty", "scalar"])
def test_fwht_rejects_bad_shapes(bad):
    with pytest.raises(ValueError):
        fwht(bad)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("e", range(14))
def test_stacked_fwht_rows_equal_1d_calls(e, rng):
    # A solve's lanes sweep as the rows of one (T, n) array: each row must
    # carry the bits of the 1-D transform of that row alone.
    n = 1 << e
    for lanes in (2, 3, 10):
        x = rng.standard_normal((lanes, n))
        for v in (x, x + 1j * rng.standard_normal((lanes, n))):
            got = fwht(v)
            assert all(_same_bits(got[i], fwht(v[i].copy())) for i in range(lanes)), (n, lanes)


def test_stacked_dct_rows_equal_1d_calls(rng):
    from adl1.operators import _dct

    for lanes in (2, 3, 10):
        x = rng.standard_normal((lanes, 1000))
        for v in (x, x + 1j * rng.standard_normal((lanes, 1000))):
            for inverse in (False, True):
                got = _dct(v, inverse)
                assert all(_same_bits(got[i], _dct(v[i].copy(), inverse))
                           for i in range(lanes)), (lanes, v.dtype, inverse)


@pytest.mark.parametrize("kind,n,m", [("wht", 1024, 307), ("dct", 1000, 300)])
def test_stacked_operator_lanes_equal_their_operators(kind, n, m, rng):
    ops = [make_operator(kind, n, m, rng) for _ in range(4)]
    for stacked, lanes in ((stack_operators(ops), ops),
                           (AugmentedOperator(stack_operators(ops), 0.5),
                            [AugmentedOperator(op, 0.5) for op in ops])):
        assert stacked.lanes == 4
        x = rng.standard_normal((4, stacked.n))
        y = rng.standard_normal((4, m))
        for u, v in ((x, y), (x + 1j * x[::-1], y + 1j * y[::-1])):
            fwd, back = stacked.apply(u), stacked.adjoint(v)
            for i, op in enumerate(lanes):
                assert _same_bits(fwd[i], op.apply(u[i].copy()))
                assert _same_bits(back[i], op.adjoint(v[i].copy()))
        kept = stacked.take(np.array([True, False, True, False]))
        assert kept.lanes == 2
        assert _same_bits(kept.apply(x[[0, 2]])[1], lanes[2].apply(x[2].copy()))
        with pytest.raises(DimensionMismatchError):
            stacked.apply(x[0])
    # only a stacked operator maps lanes; a single one maps one vector
    with pytest.raises(DimensionMismatchError):
        ops[0].apply(rng.standard_normal((3, n)))
    with pytest.raises(ValueError):
        stack_operators([ops[0], make_operator(kind, n, m - 1, rng)])


@pytest.mark.parametrize("kind,n", [("wht", 32), ("dct", 45)],
                         ids=["make_partial_wht-32", "make_partial_dct-45"])
def test_partial_transform_matches_materialized_matrix(kind, n, rng):
    op = make_operator(kind, n, 12, rng)
    mat = materialize(op)
    x = _complex(rng, n)
    y = _complex(rng, op.m)
    assert np.allclose(op.apply(x), mat @ x, atol=1e-12)
    assert np.allclose(op.adjoint(y), mat.conj().T @ y, atol=1e-12)
    gram = mat @ mat.conj().T
    assert np.allclose(gram, np.eye(op.m), atol=1e-12)


def test_wht_rejects_non_power_of_two(rng):
    with pytest.raises(ValueError):
        make_operator("wht", 48, 10, rng)
    with pytest.raises(ValueError):
        PartialWalshHadamardOperator(24, [0, 1], np.ones(24))


def test_partial_operator_argument_validation():
    signs = np.ones(16)
    with pytest.raises(ValueError):
        PartialWalshHadamardOperator(16, [], signs)
    with pytest.raises(ValueError):
        PartialWalshHadamardOperator(16, [3, 3], signs)
    with pytest.raises(ValueError):
        PartialWalshHadamardOperator(16, [0, 16], signs)
    with pytest.raises(ValueError):
        PartialDCTOperator(10, [0, 1], np.ones(10) * 2.0)
    with pytest.raises(ValueError):
        PartialDCTOperator(10, [0, 1], np.ones(9))


def test_dense_orthonormal_claim_is_probed(rng):
    a = rng.standard_normal((3, 8))
    with pytest.raises(ValueError):
        DenseOperator(a, orthonormal_rows=True)
    q = scipy.linalg.qr(a.T, mode="economic")[0].T
    DenseOperator(q, orthonormal_rows=True)  # must not raise


def test_lambda_max_is_one_for_orthonormal_rows(rng):
    op = make_operator("wht", 64, 20, rng)
    assert op.lambda_max() == 1.0


def test_lambda_max_on_known_diagonal_operator():
    op = DenseOperator(np.array([[2.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    est = estimate_lambda_max(op, tol=1e-12, max_iter=500)
    assert abs(est - 4.0) < 1e-8
    assert abs(op.lambda_max() - 4.0) < 1e-4


def test_lambda_max_matches_dense_eigensolver(rng):
    a = _complex(rng, (20, 50))
    op = DenseOperator(a)
    exact = float(np.linalg.eigvalsh(a.conj().T @ a)[-1])
    est = estimate_lambda_max(op, tol=1e-12, max_iter=5000)
    assert abs(est - exact) < 1e-6 * exact


def test_lambda_max_is_memoized(rng):
    op = DenseOperator(_complex(rng, (5, 11)))
    first = op.lambda_max()
    assert op.lambda_max() == first
    assert op._lambda_max_cache == first


def test_augmented_operator_block_structure(rng):
    base = DenseOperator(_complex(rng, (4, 6)))
    nu = 0.7
    op = AugmentedOperator(base, nu)
    assert op.shape == (4, 10)
    mat = materialize(op)
    expected = np.hstack([base.matrix, nu * np.eye(4)]) / np.sqrt(1 + nu * nu)
    assert np.allclose(mat, expected, atol=1e-14)
    # Zero signal block: the forward map reduces to the scaled tail.
    r = _complex(rng, 4)
    x = np.concatenate([np.zeros(6, dtype=np.complex128), r])
    assert np.allclose(op.apply(x), nu * r / np.sqrt(1 + nu * nu), atol=1e-14)


def test_augmented_operator_keeps_orthonormal_rows(rng):
    base = make_operator("dct", 40, 13, rng)
    op = AugmentedOperator(base, 2.5)
    assert op.orthonormal_rows
    y = _complex(rng, op.m)
    assert np.allclose(op.apply(op.adjoint(y)), y, atol=1e-12)


def test_augmented_operator_l1l1_identities(rng):
    m, n, nu = 4, 7, 0.6
    a = DenseOperator(rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
    b = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    ah = AugmentedOperator(a, nu)
    bh = ah.data(b)
    assert ah.shape == (m, n + m)
    assert np.allclose(bh, nu * b / np.sqrt(1 + nu * nu), atol=1e-14)
    # The lifting (nu x; b - Ax) is feasible for the augmented equality.
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    xh = np.concatenate([nu * x, b - a.apply(x)])
    assert np.allclose(ah.apply(xh), bh, atol=1e-12)
    assert np.allclose(ah.signal(xh), x, atol=1e-14)
    # The signal block is the first n variables; a plain operator's is all of them.
    assert ah.signal_n == a.signal_n == n
    assert a.signal(x) is x


def test_augmented_signal_length_guard():
    ah = AugmentedOperator(DenseOperator(np.ones((2, 5))), 0.5)
    with pytest.raises(ValueError):
        ah.signal(np.ones(5))
    with pytest.raises(ValueError):
        ah.signal(np.ones(4))


def test_augmented_operator_validation(rng):
    base = DenseOperator(_complex(rng, (3, 5)))
    with pytest.raises(ValueError):
        AugmentedOperator(base, 0.0)
    with pytest.raises(ValueError):
        AugmentedOperator(base, -1.0)
    with pytest.raises(TypeError):
        AugmentedOperator(np.eye(3), 1.0)


def test_apply_rejects_wrong_length(rng):
    op = make_operator("wht", 32, 8, rng)
    with pytest.raises(DimensionMismatchError):
        op.apply(np.ones(31))
    with pytest.raises(DimensionMismatchError):
        op.adjoint(np.ones(9))


def test_factory_shapes_and_determinism():
    op1 = make_operator("wht", 64, 24, np.random.default_rng(5))
    op2 = make_operator("wht", 64, 24, np.random.default_rng(5))
    assert op1.shape == (24, 64)
    assert np.array_equal(op1.rows, op2.rows)
    assert np.array_equal(op1.signs, op2.signs)
    g1 = make_operator("orthgauss", 15, 6, np.random.default_rng(7))
    assert g1.shape == (6, 15)
    assert g1.orthonormal_rows


def _sha256(*arrays):
    """sha256 over each array's dtype string and bytes, in order."""
    h = hashlib.sha256()
    for v in arrays:
        h.update(v.dtype.str.encode())
        h.update(v.tobytes())
    return h.hexdigest()


# sha256 over the drawn rows and signs and over apply/adjoint of real and
# complex inputs, dtypes included, recorded before the partial transforms
# shared one base class.
PARTIAL_TRANSFORM_DIGESTS = {
    "wht": (1024, 307,
            "c3bef5315e38071b10010d4d85419e042f9fb0bd82aabaafd312deb2af54a6ab"),
    "dct": (1000, 300,
            "fc420b480f13d4c2293f418e51ee324fee0fbbc7929412082d1e966110cd63aa"),
}


@pytest.mark.parametrize("kind", sorted(PARTIAL_TRANSFORM_DIGESTS))
def test_partial_transform_outputs_are_pinned(kind):
    n, m, digest = PARTIAL_TRANSFORM_DIGESTS[kind]
    rng = np.random.default_rng(8)
    op = make_operator(kind, n, m, rng)
    x = rng.standard_normal(n)
    xc = x + 1j * rng.standard_normal(n)
    y = rng.standard_normal(m)
    yc = y + 1j * rng.standard_normal(m)
    assert _sha256(op.rows, op.signs, op.apply(x), op.apply(xc), op.adjoint(y),
                   op.adjoint(yc)) == digest


# The same sha256 over apply/adjoint of the l1/l1 model's augmented operator
# on a partial DCT, recorded before the DCT ran on the float64 view of
# complex input and the augmented adjoint filled one buffer.
AUGMENTED_DCT_DIGEST = "9c0d3af3a823cce57b802c7bdee92f79234ceadcf477133c3c957cc5c3d43a4c"


def test_augmented_dct_outputs_are_pinned():
    rng = np.random.default_rng(8)
    op = AugmentedOperator(make_operator("dct", 1000, 300, rng), 0.5)
    x = rng.standard_normal(op.n)
    xc = x + 1j * rng.standard_normal(op.n)
    y = rng.standard_normal(op.m)
    yc = y + 1j * rng.standard_normal(op.m)
    assert _sha256(op.apply(x), op.apply(xc), op.adjoint(y), op.adjoint(yc)) == AUGMENTED_DCT_DIGEST


def test_counting_operator_counts_applications_and_delegates_the_rest(rng):
    op = make_operator("wht", 64, 20, rng)
    counting = CountingOperator(op)
    assert counting.shape == (20, 64)
    assert counting.kind == op.kind
    assert counting.rows is op.rows
    assert counting.signs is op.signs
    assert (counting.m, counting.n, counting.orthonormal_rows, counting.real_valued) == \
        (20, 64, True, True)
    assert counting.lambda_max() == 1.0
    x = rng.standard_normal(64)
    assert np.array_equal(counting.adjoint(counting.apply(x)), op.adjoint(op.apply(x)))
    assert counting.count == 2
    with pytest.raises(AttributeError):
        counting.no_such_attribute


def test_every_exported_name_resolves():
    # A stale name in __all__ breaks ``from module import *``.
    for info in pkgutil.walk_packages(adl1.__path__, "adl1."):
        module = importlib.import_module(info.name)
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), "%s.__all__ names %r" % (info.name, name)
