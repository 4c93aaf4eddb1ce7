"""Real instances solve in float64, with the bytes of the complex path.

A solve works in float64 when its operator is ``real_valued`` and b has no
nonzero imaginary part; otherwise in complex128. The spy
operators below record the dtype of every vector that enters or leaves an
application. The parity tests force the complex path on the same transform
through a subclass that declares ``real_valued = False``, and require the
same x bytes, iterations, ``aat`` and status; only the l2 maps of bpdn take
a norm, whose sum rounds differently in the two dtypes.
"""

import numpy as np
import pytest

from adl1.harness import NoiseSpec, make_instance
from adl1.models import ModelSpec
from adl1.operators import (
    AugmentedOperator,
    DenseOperator,
    PartialDCTOperator,
    PartialWalshHadamardOperator,
)
from adl1.prox import (
    project_halfspace,
    project_l2_ball,
    project_linf_ball,
    shrink,
    shrink_l2,
)
from adl1.solvers import CountingOperator, SolverOptions, solve


class DtypeSpy:
    """Records the dtypes of every apply/adjoint input and output."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seen = set()

    def apply(self, x):
        self.seen.add(np.asarray(x).dtype.name)
        out = super().apply(x)
        self.seen.add(out.dtype.name)
        return out

    def adjoint(self, y):
        self.seen.add(np.asarray(y).dtype.name)
        out = super().adjoint(y)
        self.seen.add(out.dtype.name)
        return out


class SpyWHT(DtypeSpy, PartialWalshHadamardOperator):
    pass


class SpyDCT(DtypeSpy, PartialDCTOperator):
    pass


class SpyDense(DtypeSpy, DenseOperator):
    pass


class ComplexWHT(PartialWalshHadamardOperator):
    real_valued = False


class ComplexDCT(PartialDCTOperator):
    real_valued = False


def _instance(kind, n, seed=11):
    m = int(round(0.3 * n))
    return make_instance(kind, n, m, int(round(0.1 * m)), NoiseSpec(sigma=1e-3), seed)


def _as(cls, op):
    return cls(op.n, op.rows, op.signs)


W = np.linspace(0.5, 2.0, 256)

# (solver, model) pairs every real instance runs; W fits n = 256.
RUNS = [
    ("dadm", ModelSpec.bp()),
    ("dadm", ModelSpec.qp(1e-4)),
    ("dadm", ModelSpec.bpdn(0.01)),
    ("dadm", ModelSpec.l1l1(0.5)),
    ("dadm", ModelSpec.qp(1e-4, nonneg=True)),
    ("dadm", ModelSpec.l1l1(0.5, nonneg=True, weights=W)),
    ("padm", ModelSpec.qp(1e-4)),
    ("padm", ModelSpec.bpdn(0.01)),
    ("ist", ModelSpec.qp(1e-4)),
    ("fista", ModelSpec.qp(1e-4)),
]


# ---------------------------------------------------------------------------
# the dtype decision


@pytest.mark.parametrize("kind, spy", [("wht", SpyWHT), ("dct", SpyDCT)])
@pytest.mark.parametrize("name, model", RUNS,
                         ids=[name + ":" + model.describe() for name, model in RUNS])
def test_real_instance_sees_only_float64(kind, spy, name, model):
    inst = _instance(kind, 256)
    op = _as(spy, inst.A)
    rec = solve(name, model, op, inst.b, SolverOptions(tol=1e-4, max_iter=50, x_true=inst.x_true))
    assert op.seen == {"float64"}
    assert rec.x.dtype == np.complex128


def test_complex_data_or_operator_keeps_complex128(rng):
    inst = _instance("wht", 256)
    model = ModelSpec.qp(1e-4)
    opts = dict(tol=1e-4, max_iter=20)
    b = inst.b + 1e-3j * rng.standard_normal(inst.b.size)
    for name in ("dadm", "padm", "fista"):
        op = _as(SpyWHT, inst.A)
        rec = solve(name, model, op, b, SolverOptions(**opts))
        assert op.seen == {"complex128"}, name
        assert rec.x.dtype == np.complex128

    q, _ = np.linalg.qr(rng.standard_normal((32, 12)))
    dense = SpyDense(q.T, orthonormal_rows=True)
    b = q.T @ np.where(np.arange(32) < 3, 1.0, 0.0)
    for name in ("dadm", "padm", "ist"):
        rec = solve(name, model, dense, b, SolverOptions(**opts))
        assert rec.x.dtype == np.complex128
    assert dense.seen == {"complex128"}


def test_real_valued_is_declared_and_read_only(rng):
    wht = _instance("wht", 64).A
    dct = _instance("dct", 50).A
    dense = DenseOperator(rng.standard_normal((3, 5)))
    assert wht.real_valued and dct.real_valued
    assert not dense.real_valued
    assert AugmentedOperator(wht, 0.5).real_valued
    assert not AugmentedOperator(dense, 0.5).real_valued
    assert CountingOperator(dct).real_valued
    assert not _as(ComplexWHT, wht).real_valued
    with pytest.raises(AttributeError):
        wht.real_valued = False


@pytest.mark.parametrize("kind, n", [("wht", 1024), ("wht", 8192), ("dct", 1000)])
def test_real_transforms_equal_complex_real_parts(kind, n, rng):
    op = _instance(kind, n).A
    x = rng.standard_normal(n)
    y = rng.standard_normal(op.m)
    for real_in, fn in ((x, op.apply), (y, op.adjoint)):
        real_out = fn(real_in)
        cplx_out = fn(real_in.astype(np.complex128))
        assert real_out.dtype == np.float64 and cplx_out.dtype == np.complex128
        assert real_out.tobytes() == np.ascontiguousarray(cplx_out.real).tobytes()


# ---------------------------------------------------------------------------
# parity of the two paths


def _parity_pairs():
    for kind, n, forced in (("wht", 1024, ComplexWHT), ("dct", 1000, ComplexDCT)):
        inst = _instance(kind, n, seed=5)
        yield kind, inst, inst.A, _as(forced, inst.A)


# (solver, model of n) pairs whose two paths agree bit for bit.
BIT_EQUAL = [
    ("dadm", lambda n: ModelSpec.bp()),
    ("dadm", lambda n: ModelSpec.qp(1e-4)),
    ("dadm", lambda n: ModelSpec.l1l1(0.5)),
    ("dadm", lambda n: ModelSpec.qp(1e-4, nonneg=True)),
    ("dadm", lambda n: ModelSpec.bp(weights=np.linspace(0.5, 2.0, n))),
    ("padm", lambda n: ModelSpec.bp()),
    ("padm", lambda n: ModelSpec.qp(1e-4)),
    ("ist", lambda n: ModelSpec.qp(1e-4)),
    ("fista", lambda n: ModelSpec.qp(1e-4)),
]


# The baselines stop on relative change only.
BIT_EQUAL_CASES = [(name, model_of, stop) for name, model_of in BIT_EQUAL
                   for stop in ("relchg", "res") if stop == "relchg" or name in ("dadm", "padm")]


@pytest.mark.parametrize("name, model_of, stop", BIT_EQUAL_CASES,
                         ids=["%s:%s:%s" % (name, model_of(1).describe(), stop)
                              for name, model_of, stop in BIT_EQUAL_CASES])
def test_float64_solve_is_bit_equal_to_complex_solve(name, model_of, stop):
    for kind, inst, real_op, complex_op in _parity_pairs():
        model = model_of(inst.A.n)
        o = SolverOptions(tol=5e-4 if stop == "relchg" else 1e-8, max_iter=300, stop=stop,
                          x_true=inst.x_true)
        real = solve(name, model, real_op, inst.b, o)
        cplx = solve(name, model, complex_op, inst.b, o)
        assert real.x.tobytes() == cplx.x.tobytes(), kind
        assert ((real.iterations, real.aat, real.status)
                == (cplx.iterations, cplx.aat, cplx.status)), kind


@pytest.mark.parametrize("name", ["dadm", "padm"])
def test_float64_bpdn_agrees_to_rounding(name):
    for kind, inst, real_op, complex_op in _parity_pairs():
        model = ModelSpec.bpdn(float(np.linalg.norm(inst.p_white)))
        o = SolverOptions(tol=5e-4, max_iter=300)
        real = solve(name, model, real_op, inst.b, o)
        cplx = solve(name, model, complex_op, inst.b, o)
        assert np.linalg.norm(real.x - cplx.x) <= 1e-12 * np.linalg.norm(cplx.x), kind
        assert ((real.iterations, real.aat, real.status)
                == (cplx.iterations, cplx.aat, cplx.status)), kind


# ---------------------------------------------------------------------------
# prox maps


PROX_MAPS = [
    ("shrink", lambda v: shrink(v, 0.7)),
    ("shrink weighted", lambda v: shrink(v, np.linspace(0.1, 1.5, v.size))),
    ("linf ball", lambda v: project_linf_ball(v, 1.0)),
    ("linf ball weighted", lambda v: project_linf_ball(v, np.linspace(0.5, 2.0, v.size))),
    ("halfspace", lambda v: project_halfspace(v, 0.3)),
    ("l2 ball", lambda v: project_l2_ball(v, 2.0)),
    ("shrink_l2", lambda v: shrink_l2(v, 2.0)),
]


@pytest.mark.parametrize("label, fn", PROX_MAPS, ids=[p[0] for p in PROX_MAPS])
def test_prox_keeps_dtype_and_real_part(label, fn, rng):
    v = rng.standard_normal(257) * 1.5
    v[::7] = 0.0
    real = fn(v)
    cplx = fn(v.astype(np.complex128))
    assert real.dtype == np.float64
    assert cplx.dtype == np.complex128
    assert fn(v + 1j * rng.standard_normal(v.size)).dtype == np.complex128
    if label in ("l2 ball", "shrink_l2"):
        # The norm of a float64 vector and of its complex embedding may sum
        # in different orders.
        assert np.allclose(real, cplx.real, rtol=1e-15, atol=0.0)
    else:
        assert real.tobytes() == np.ascontiguousarray(cplx.real).tobytes()
