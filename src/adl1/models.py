"""Problem catalog and run diagnostics.

Four model families, each with an optional nonnegativity constraint and
optional positive weights on the l1 term (eight models total):

- ``bp``     min ||x||_1           s.t. Ax = b
- ``bpdn``   min ||x||_1           s.t. ||Ax - b||_2 <= delta
- ``qp``     min ||x||_1 + ||Ax - b||_2^2 / (2 mu)
- ``l1l1``   min ||x||_1 + ||Ax - b||_1 / nu

The dual solver rewrites the l1/l1 model as basis pursuit on the augmented
operator [A, nu I]/sqrt(1+nu^2), which keeps orthonormal rows whenever A has
them. That layout belongs to ``operators.AugmentedOperator``; this module
knows models, not operators.
"""

from __future__ import annotations

import copy
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import ConfigError

__all__ = [
    "ModelSpec",
    "stack_models",
    "take_column",
    "Diagnostics",
    "compute_res",
    "row_norm",
    "data_norm",
    "relres",
    "relchg",
    "relerr",
    "l1_norm",
]

FAMILIES = ("bp", "bpdn", "qp", "l1l1")
# The one parameter each family takes ("" for none).
_PARAM = {"bp": "", "bpdn": "delta", "qp": "mu", "l1l1": "nu"}


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """One of the eight supported l1 models.

    Exactly one of mu/delta/nu is meaningful, selected by ``family``.
    ``weights`` replaces ||x||_1 by sum(w_i |x_i|) and must be positive.
    A stacked model (``stack_models``) holds that parameter as a (T, 1)
    column, one value per lane, and ``lanes`` = T.
    """

    lanes = None  # for a model of one lane, as on ``operators.SensingOperator``

    family: str
    mu: float = 0.0
    delta: float = 0.0
    nu: float = 0.0
    nonneg: bool = False
    weights: np.ndarray | None = field(default=None)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown model family {self.family!r}, expected one of {FAMILIES}")
        # Chained comparisons, so that NaN fails them too.
        if self.family == "qp" and not 0 < self.mu < np.inf:
            raise ConfigError(f"qp model needs a finite mu > 0, got {self.mu}")
        if self.family == "bpdn" and not 0 <= self.delta < np.inf:
            raise ConfigError(f"bpdn model needs a finite delta >= 0, got {self.delta}")
        if self.family == "l1l1" and not 0 < self.nu < np.inf:
            raise ConfigError(f"l1l1 model needs a finite nu > 0, got {self.nu}")
        if not isinstance(self.nonneg, bool):
            raise ConfigError(f"'nonneg' must be true or false, got {self.nonneg!r}")
        for name in ("mu", "delta", "nu"):
            val = getattr(self, name)
            if val != 0.0 and name != self._param_name():
                raise ConfigError(f"{name} is not a parameter of the {self.family} model")
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=np.float64)
            if w.ndim != 1 or np.any(w <= 0) or not np.all(np.isfinite(w)):
                raise ConfigError("weights must be a 1-D vector of positive finite values")
            object.__setattr__(self, "weights", w)

    def _param_name(self):
        return _PARAM[self.family]

    @cached_property
    def fidelity(self):
        """The branch a sweep and the residues take: the family, but "bp" for a
        bpdn model with delta = 0; so "qp" when mu > 0, "bpdn" when delta > 0."""
        return "bp" if self.family == "bpdn" and not np.all(self.delta > 0) else self.family

    def take(self, keep):
        """The model of the lanes that the index array ``keep`` selects, or
        for an integer that lane's own model, unstacked; an unstacked model
        is every lane's."""
        if self.lanes is None:
            return self
        name = self._param_name()
        value = take_column(getattr(self, name), keep)
        return self._with_column(value) if np.ndim(value) else replace(self, **{name: value})

    def _with_column(self, column):
        stacked = copy.copy(self)
        object.__setattr__(stacked, self._param_name(), column)
        object.__setattr__(stacked, "lanes", len(column))
        return stacked

    @classmethod
    def bp(cls, nonneg=False, weights=None):
        return cls("bp", nonneg=nonneg, weights=weights)

    @classmethod
    def bpdn(cls, delta, nonneg=False, weights=None):
        return cls("bpdn", delta=float(delta), nonneg=nonneg, weights=weights)

    @classmethod
    def qp(cls, mu, nonneg=False, weights=None):
        return cls("qp", mu=float(mu), nonneg=nonneg, weights=weights)

    @classmethod
    def l1l1(cls, nu, nonneg=False, weights=None):
        return cls("l1l1", nu=float(nu), nonneg=nonneg, weights=weights)

    def describe(self):
        """Short label like ``qp(mu=0.0001)`` used in reports."""
        name = self._param_name()
        inner = f"{name}={getattr(self, name):g}" if name else ""
        tag = f"{self.family}({inner})"
        if self.nonneg:
            tag += "+nonneg"
        if self.weights is not None:
            tag += "+weighted"
        return tag

    def to_dict(self):
        d = {"family": self.family, "nonneg": self.nonneg}
        name = self._param_name()
        if name:
            d[name] = float(getattr(self, name))
        if self.weights is not None:
            d["weights"] = [float(w) for w in self.weights]
        return d

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        family = d.pop("family", None)
        if family not in FAMILIES:
            raise ConfigError(f"model config needs a family in {FAMILIES}, got {family!r}")
        nonneg = d.pop("nonneg", False)
        weights = d.pop("weights", None)
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
        kwargs = {}
        for name in ("mu", "delta", "nu"):
            if name in d:
                kwargs[name] = float(d.pop(name))
        param = _PARAM[family]
        if param and param not in kwargs:
            raise ConfigError(f"the {family} model config needs {param!r}")
        if d:
            raise ConfigError(f"unknown model config keys: {sorted(d)}")
        return cls(family, nonneg=nonneg, weights=weights, **kwargs)


def stack_models(specs):
    """One model whose lane i is ``specs[i]``: unstacked models of one
    family, ``nonneg`` and ``weights``, whose parameter (mu, delta or nu)
    becomes a (T, 1) column. One spec, or specs with equal parameters, come
    back as the first. A bpdn stack may not mix delta = 0 with delta > 0,
    whose sweeps differ. Anything else raises ConfigError."""
    first = specs[0]
    if not all(s.family == first.family and s.nonneg == first.nonneg and s.lanes is None
               and np.array_equal(s.weights, first.weights) for s in specs):
        raise ConfigError("only unstacked models of one family, nonnegativity and weights stack")
    name = first._param_name()
    values = [getattr(s, name) for s in specs] if name else []
    if all(v == values[0] for v in values):
        return first
    if first.family == "bpdn" and min(values) == 0.0:
        raise ConfigError("a bpdn stack cannot mix delta = 0 with delta > 0")
    return first._with_column(np.array(values, dtype=np.float64)[:, None])


def take_column(value, keep):
    """The rows of a (T, 1) column that the index array ``keep`` selects, or
    for an integer that row's value as a float; a scalar is every lane's."""
    if np.ndim(value) == 0:
        return value
    value = value[keep]
    return value if value.ndim == 2 else float(value[0])


def row_norm(v):
    """||v|| of each row (lane) of a (T, n) v as a (T,) array, or of a 1-D v.

    It sums squares as ``np.linalg.norm`` does (``ndarray.dot``, which
    ``np.vecdot`` matches row by row at more cost per call), so each value
    has the bits of ``np.linalg.norm`` of its row alone."""
    dot = np.ndarray.dot if v.ndim == 1 else np.vecdot
    if v.dtype.kind != "c":
        return np.sqrt(dot(v, v))
    re, im = v.real, v.imag
    return np.sqrt(dot(re, re) + dot(im, im))


def l1_norm(x, weights=None):
    """sum |x_i|, or sum w_i |x_i| when weights are given, per row as ``row_norm``."""
    mag = np.abs(x)
    if weights is None:
        return mag.sum(axis=-1)
    return np.vecdot(mag, weights)


@dataclass
class Diagnostics:
    """Optimality residues and progress measures at one iterate.

    Residues follow the primal-dual system of the penalized model:
    r_p = Ax + mu y - b (relative to ||b||), r_d = A*y - z (norm scaled by
    sqrt(m)), and the duality gap ratio |Delta|/f_p with
    Delta = Re(b* y) - mu ||y||^2 - ||x||_1 and f_p = ||x||_1 + mu ||y||^2 / 2.
    ``res`` is the max of the available components. Fields that do not apply
    are NaN: gap for the mu = 0 models, and relerr (percent), which
    ``run_solve`` sets only for a solve given ground truth.
    """

    r_p: float
    r_d: float
    gap: float
    res: float
    relchg: float
    objective: float
    relerr: float


def _nonzero(d):
    """d with its zeros made 1: a ratio over it falls back to its numerator."""
    return d + (d == 0)


def relchg(x_new, x_old):
    """Relative change ||x_new - x_old|| / ||x_old|| of each lane.

    Falls back to ||x_new|| where the previous iterate is zero (normal at
    the cold start).
    """
    return row_norm(x_new - x_old) / _nonzero(row_norm(x_old))


def relerr(x, x_true):
    """Relative error against the ground truth, in percent."""
    denom = row_norm(x_true)
    if denom == 0.0:
        raise ValueError("relerr undefined: ground truth has zero norm")
    return float(100.0 * row_norm(x - x_true) / denom)


def data_norm(b):
    """||b|| of each lane, the scale of the primal residue.

    Where b is zero it is 1.0, with a warning, so the residue falls back to
    the absolute norm.
    """
    b_norm = row_norm(b)
    if np.any(b_norm == 0.0):
        warnings.warn("b is zero; primal residue uses the absolute norm", RuntimeWarning, stacklevel=3)
    return _nonzero(b_norm)


def relres(A, b, x):
    """||Ax - b|| / ||b||, or the absolute residual when b is zero, as in ``data_norm``."""
    return float(row_norm(A.apply(x) - b) / _nonzero(row_norm(b)))


def residues(x, y, z, A, b, model, *, misfit, Aty, b_norm, x_l1=None):
    """(r_p, r_d, gap, res) of the iterate, NaN where they do not apply, each
    one value per lane as ``row_norm`` gives them (``b_norm`` too).

    ``misfit`` is Ax - b. r_p needs the multiplier y; r_d, gap and res need
    the dual auxiliary z too, and the gap needs mu > 0 and the iterate's
    (weighted) l1 norm ``x_l1``, computed here when omitted. The model may
    be stacked, with lanes the iterate's.
    """
    fit, mu, delta = model.fidelity, model.mu, model.delta
    if model.lanes:  # a stacked model's column meets the (T,) norms as its (T,) view
        mu, delta = np.ravel(mu), np.ravel(delta)
    r_p = r_d = gap = res = np.nan
    if y is not None:
        if fit == "qp":
            rp_norm = row_norm(misfit + model.mu * y)
        elif fit == "bpdn":
            rp_norm = np.maximum(row_norm(misfit) - delta, 0.0)
        else:
            rp_norm = row_norm(misfit)
        r_p = rp_norm / b_norm
    if z is not None:
        r_d = row_norm(Aty - z) / np.sqrt(A.m)
        res = np.maximum(r_p, r_d)
        if fit == "qp":
            if x_l1 is None:
                x_l1 = l1_norm(x, model.weights)
            y_sq = row_norm(y) ** 2
            delta_gap = np.real(np.vecdot(b, y)) - mu * y_sq - x_l1
            gap = abs(delta_gap) / _nonzero(x_l1 + 0.5 * mu * y_sq)
            res = np.maximum(res, gap)
    return r_p, r_d, gap, res


def compute_res(x, y, z, A, b, model, *, Ax, Aty, b_norm, x_prev=None):
    """Optimality diagnostics for a primal-dual iterate (x, y, z) of ``model``.

    The row is ``residues``, ``relchg`` and the objective. ``run_solve``
    builds one at the final iterate, and one per sweep for a solve that
    asks for its history; each sweep's stop test calls ``residues`` or
    ``relchg`` alone. The row's ``relerr`` is NaN: ground truth is not an
    optimality measure, and ``run_solve`` fills it only for a solve given
    ``x_true`` (err-vs-opt's).

    Parameters
    ----------
    x, y, z : ndarray
        Primal iterate, multiplier, and dual auxiliary (z approximates A*y
        inside the unit-magnitude ball). y is None for a method without a
        multiplier (the proximal-gradient baselines): then r_p, r_d, gap and
        res are all NaN. z is None when the dual residue is not measured
        (the primal solver under the relchg stop): then r_d, gap and res
        are NaN.
    A : SensingOperator
    b : ndarray
    model : ModelSpec
        The model the iterate solves (for the l1/l1 model, the basis
        pursuit on the augmented pair that ``dadm_solve`` iterates). Its
        ``mu`` > 0 selects the penalized residues; with mu = 0 the gap
        component is omitted (NaN) because the r = mu y identification that
        defines it degenerates, and ``delta`` > 0 makes the primal residue
        dist(Ax, delta-ball around b) / ||b||. ``weights`` weight the l1
        term. It is unstacked: the row is one lane's.
    Ax, Aty : ndarray, keyword
        The products A x and A* y (Aty may be None when z is).
    b_norm : float, keyword
        ``data_norm(b)``, computed once per solve (may be None when y is).
    x_prev : ndarray, keyword
        Fills ``relchg`` when given.

    Returns
    -------
    Diagnostics
        Residues are relative to ``b_norm``.
    """
    misfit = Ax - b
    x_l1 = l1_norm(x, model.weights)
    r_p, r_d, gap, res = residues(x, y, z, A, b, model, misfit=misfit, Aty=Aty, b_norm=b_norm,
                                  x_l1=x_l1)
    objective = x_l1 + 0.5 * row_norm(misfit) ** 2 / model.mu if model.fidelity == "qp" else x_l1
    chg = relchg(x, x_prev) if x_prev is not None else np.nan
    return Diagnostics(r_p=float(r_p), r_d=float(r_d), gap=float(gap), res=float(res),
                       relchg=float(chg), objective=float(objective), relerr=np.nan)
