"""Model catalog, metrics and diagnostics."""

import numpy as np
import pytest

from adl1.errors import ConfigError
from adl1.models import ModelSpec, compute_res, data_norm, l1_norm, relchg, relerr, row_norm
from adl1.operators import DenseOperator

from oracles import objective_value, snr_db


def test_model_spec_constructors_and_describe():
    assert ModelSpec.bp().describe() == "bp()"
    assert ModelSpec.qp(1e-4).describe() == "qp(mu=0.0001)"
    assert ModelSpec.bpdn(0.5).describe() == "bpdn(delta=0.5)"
    assert ModelSpec.l1l1(0.3).describe() == "l1l1(nu=0.3)"
    assert ModelSpec.bp(nonneg=True).describe() == "bp()+nonneg"
    tagged = ModelSpec.qp(0.1, weights=np.ones(3)).describe()
    assert tagged == "qp(mu=0.1)+weighted"


def test_model_spec_validation():
    with pytest.raises(ConfigError):
        ModelSpec("lasso")
    with pytest.raises(ConfigError):
        ModelSpec.qp(0.0)
    with pytest.raises(ConfigError):
        ModelSpec.qp(-1.0)
    with pytest.raises(ConfigError):
        ModelSpec.bpdn(-0.1)
    with pytest.raises(ConfigError):
        ModelSpec.l1l1(0.0)
    # Parameters may only be set on the family that owns them.
    with pytest.raises(ConfigError):
        ModelSpec("bp", mu=0.1)
    with pytest.raises(ConfigError):
        ModelSpec("qp", mu=0.1, delta=0.2)
    with pytest.raises(ConfigError):
        ModelSpec.bp(weights=np.array([1.0, -1.0]))
    with pytest.raises(ConfigError):
        ModelSpec.bp(weights=np.ones((2, 2)))
    ModelSpec.bpdn(0.0)  # zero radius degenerates to bp and is allowed


@pytest.mark.parametrize("make", [
    lambda v: ModelSpec.qp(v), lambda v: ModelSpec.bpdn(v), lambda v: ModelSpec.l1l1(v),
], ids=["qp", "bpdn", "l1l1"])
@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_model_spec_rejects_nonfinite_parameters(make, value):
    with pytest.raises(ConfigError):
        make(value)


def test_model_spec_dict_roundtrip():
    specs = [
        ModelSpec.bp(),
        ModelSpec.qp(2.5e-3, nonneg=True),
        ModelSpec.bpdn(0.7),
        ModelSpec.l1l1(0.4, weights=np.array([1.0, 2.0, 0.5])),
    ]
    for spec in specs:
        back = ModelSpec.from_dict(spec.to_dict())
        assert back.describe() == spec.describe()
        assert back.family == spec.family
        if spec.weights is not None:
            assert np.array_equal(back.weights, spec.weights)
    with pytest.raises(ConfigError):
        ModelSpec.from_dict({"family": "qp", "mu": 0.1, "rho": 2})
    with pytest.raises(ConfigError):
        ModelSpec.from_dict({"mu": 0.1})
    # The string "false" is truthy: refused, not read as nonneg=True.
    for value in ("false", 1, None):
        with pytest.raises(ConfigError, match="nonneg"):
            ModelSpec.from_dict({"family": "bp", "nonneg": value})
        with pytest.raises(ConfigError, match="nonneg"):
            ModelSpec.qp(0.1, nonneg=value)


def test_l1_norm_and_objectives():
    x = np.array([3 + 4j, -1.0, 0.0])
    assert l1_norm(x) == pytest.approx(6.0)
    assert l1_norm(x, weights=np.array([2.0, 1.0, 5.0])) == pytest.approx(11.0)

    a = DenseOperator(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    b = np.array([2.0, 0.0], dtype=np.complex128)
    # Ax = (3+4j, -1), misfit = (1+4j, -1), ||misfit||^2 = 18.
    assert objective_value(ModelSpec.bp(), a, b, x) == pytest.approx(6.0)
    assert objective_value(ModelSpec.qp(0.5), a, b, x) == pytest.approx(6.0 + 18.0 / 1.0)
    l1_misfit = abs(1 + 4j) + 1.0
    assert objective_value(ModelSpec.l1l1(2.0), a, b, x) == pytest.approx(6.0 + l1_misfit / 2.0)
    assert objective_value(ModelSpec.bpdn(0.3), a, b, x) == pytest.approx(6.0)


def test_relchg_relerr_sentinels():
    x = np.array([1.0, 1.0])
    assert relchg(x, np.zeros(2)) == pytest.approx(np.sqrt(2.0))
    assert relchg(np.array([1.1, 1.0]), x) == pytest.approx(0.1 / np.sqrt(2.0))
    assert relerr(np.array([1.0, 0.0]), np.array([2.0, 0.0])) == pytest.approx(50.0)
    with pytest.raises(ValueError):
        relerr(x, np.zeros(2))


def _same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("n", [1, 7, 1000, 1024, 1300, 8192, 16384])
def test_batched_reductions_equal_1d_calls(n, rng):
    # A solve reduces all its lanes in one call: each lane's value must carry
    # the bits of the 1-D call on its row alone, which a solo solve takes.
    w = rng.uniform(0.5, 2.0, n)
    for lanes in (1, 2, 3, 10, 16):
        scale = 10.0 ** rng.uniform(-5.0, 5.0, (lanes, 1))
        x = rng.standard_normal((lanes, n)) * scale
        u = rng.standard_normal((lanes, n)) * scale
        for v, y in ((x, u), (x + 1j * u[::-1], u + 1j * x[::-1])):
            norms, sums, weighted = row_norm(v), l1_norm(v), l1_norm(v, w)
            gaps = np.real(np.vecdot(v, y))  # the gap term of ``residues``
            betas = np.abs(v).sum(axis=-1, keepdims=True)  # the default-beta sums
            for i in range(lanes):
                row = v[i].copy()
                case = (lanes, i, v.dtype)
                assert _same_bits(norms[i], np.linalg.norm(row)), case
                assert _same_bits(row_norm(row), np.linalg.norm(row)), case
                assert _same_bits(sums[i], np.sum(np.abs(row))), case
                assert _same_bits(weighted[i], np.dot(w, np.abs(row))), case
                assert _same_bits(gaps[i], np.real(np.vdot(row, y[i].copy()))), case
                assert _same_bits(betas[i, 0], np.sum(np.abs(row))), case


def test_snr_db_values():
    b = np.array([3.0, 1.0])
    p = np.array([0.6, 0.8])
    # ||b - mean|| = sqrt(2), ||p|| = 1.
    assert snr_db(b, p) == pytest.approx(10.0 * np.log10(2.0))
    assert snr_db(b, np.zeros(2)) == np.inf
    assert snr_db(np.full(4, 7.0), p) == -np.inf
    scaled = snr_db(b, p / 10.0)
    assert scaled == pytest.approx(20.0 + 10.0 * np.log10(2.0))


def test_compute_res_constrained_families(rng):
    a = DenseOperator(np.array([[1.0, 0.0], [0.0, 1.0]]))
    b = np.array([1.0, 1.0], dtype=np.complex128)
    x = np.array([1.0, 0.7], dtype=np.complex128)
    y = np.array([0.5, 0.5], dtype=np.complex128)
    z = np.array([0.5, 0.5], dtype=np.complex128)

    products = dict(Ax=a.apply(x), Aty=a.adjoint(y), b_norm=data_norm(b))
    d = compute_res(x, y, z, a, b, ModelSpec.bp(), **products)
    assert np.isnan(d.gap)
    assert d.r_p == pytest.approx(0.3 / np.sqrt(2.0))
    assert d.r_d == 0.0
    assert d.res == d.r_p
    assert d.objective == pytest.approx(1.7)
    assert np.isnan(d.relchg) and np.isnan(d.relerr)

    # Inside the delta ball the primal residue clips to zero.
    d2 = compute_res(x, y, z, a, b, ModelSpec.bpdn(0.5), **products)
    assert d2.r_p == 0.0
    d3 = compute_res(x, y, z, a, b, ModelSpec.bpdn(0.1), **products)
    assert d3.r_p == pytest.approx(0.2 / np.sqrt(2.0))


def test_compute_res_penalized_gap():
    a = DenseOperator(np.eye(2))
    b = np.array([2.0, 0.0], dtype=np.complex128)
    x = np.array([1.5, 0.0], dtype=np.complex128)
    mu = 0.5
    y = (b - x) / mu  # saddle identification r = mu y
    z = np.array([1.0, 0.0], dtype=np.complex128)
    d = compute_res(x, y, z, a, b, ModelSpec.qp(mu), Ax=a.apply(x), Aty=a.adjoint(y),
                    b_norm=data_norm(b))
    assert d.r_p == pytest.approx(0.0, abs=1e-15)
    delta_gap = np.real(np.vdot(b, y)) - mu * np.linalg.norm(y) ** 2 - 1.5
    f_p = 1.5 + 0.5 * mu * np.linalg.norm(y) ** 2
    assert d.gap == pytest.approx(abs(delta_gap) / f_p)
    assert d.res == max(d.r_p, d.r_d, d.gap)
    assert d.objective == pytest.approx(1.5 + 0.25 / (2 * mu))


def test_compute_res_optional_fields(rng):
    a = DenseOperator(rng.standard_normal((3, 5)))
    b = rng.standard_normal(3).astype(np.complex128)
    x = rng.standard_normal(5).astype(np.complex128)
    y = rng.standard_normal(3).astype(np.complex128)
    z = a.adjoint(y)
    d = compute_res(x, y, z, a, b, ModelSpec.bp(), Ax=a.apply(x), Aty=a.adjoint(y),
                    b_norm=data_norm(b), x_prev=np.zeros(5))
    assert d.r_d == pytest.approx(0.0, abs=1e-14)
    assert d.relchg == pytest.approx(float(np.linalg.norm(x)))
    # ground truth is run_solve's to score, never compute_res's
    assert np.isnan(d.relerr)


def test_compute_res_zero_data_warns():
    a = DenseOperator(np.eye(2))
    x, y, b = np.ones(2), np.zeros(2), np.zeros(2, dtype=np.complex128)
    with pytest.warns(RuntimeWarning):
        b_norm = data_norm(b)
    d = compute_res(x, y, np.zeros(2), a, b, ModelSpec.bp(), Ax=a.apply(x), Aty=a.adjoint(y),
                    b_norm=b_norm)
    assert d.r_p == pytest.approx(np.sqrt(2.0))
