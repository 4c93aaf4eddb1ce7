"""Proximal and projection primitives.

All five maps act componentwise or on the whole vector over C, preserve
phases, and define sign(0) = 0. Thresholds and radii may be scalars or
per-component vectors (vectors support the weighted-l1 variants). A negative
or NaN threshold or radius raises ValueError, and so does an l-infinity
radius of zero.

The two l2 maps act on the last axis: each row of a 2-D array is a vector
of its own (a lane), with its own radius or threshold when that is a
(rows, 1) column, and is mapped by the 1-D computation.

A map returns float64 for real input and complex128 for complex input. On
real input it computes, bit for bit, the real part of what it computes on
that input embedded with zero imaginary parts, except that the two l2 maps
take a norm, whose sum may round differently in the two dtypes.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "shrink",
    "project_linf_ball",
    "project_l2_ball",
    "shrink_l2",
    "project_halfspace",
]


_FLOAT_MAX = np.finfo(np.float64).max


def _check_nonneg(t, what):
    t = np.asarray(t, dtype=np.float64)
    # Written so that NaN fails too.
    if not np.all(t >= 0):
        raise ValueError(f"{what} must be nonnegative")
    return t


def _as_field(v):
    """v as a complex128 array when it is complex, else as a float64 array."""
    return np.asarray(v, dtype=np.complex128 if np.iscomplexobj(v) else np.float64)


def shrink(v, t):
    """Soft threshold: max(|v| - t, 0) * v/|v|, with 0 where v = 0.

    ``t`` is a nonnegative scalar or a per-component vector of thresholds.
    """
    t = _check_nonneg(t, "shrink threshold")
    v = _as_field(v)
    mag = np.abs(v)
    kept = np.maximum(mag - t, 0.0)
    denom = np.where(mag > 0.0, mag, 1.0)
    return v * (kept / denom)


def project_linf_ball(v, radius=1.0):
    """Project componentwise onto {z : |z_i| <= radius_i}, keeping phases.

    ``radius`` is a positive scalar or per-component vector; an infinite
    radius leaves its components unchanged.
    """
    radius = np.asarray(radius, dtype=np.float64)
    if not (radius > 0).all():
        raise ValueError("linf ball radius must be positive")
    if radius.max() == np.inf:
        # As the largest float, its ratio below reads 1 instead of inf/inf.
        radius = np.minimum(radius, _FLOAT_MAX)
    v = _as_field(v)
    mag = np.abs(v)
    # w/max(|v|, w) is exactly 1 inside the ball, so interior points pass
    # through unchanged.
    return v * (radius / np.maximum(mag, radius))


def _by_row(fn, v, t):
    """fn(row, t_row) for each row of a 2-D v; t is a scalar or a (rows, 1) column."""
    t = np.ravel(t)
    out = np.empty_like(v)
    for i, row in enumerate(v):
        out[i] = fn(row, t[i % t.size])
    return out


def project_l2_ball(v, delta):
    """Project onto the l2 ball of radius delta centered at the origin."""
    v = _as_field(v)
    if v.ndim > 1:
        return _by_row(project_l2_ball, v, delta)
    delta = float(delta)
    if not delta >= 0:
        raise ValueError("l2 ball radius must be nonnegative")
    nv = np.linalg.norm(v)
    if nv <= delta:
        return v.copy()
    if delta == 0.0:
        return np.zeros_like(v)
    return v * (delta / nv)


def shrink_l2(v, t):
    """Shrink the whole vector toward the origin: v - P_{l2 ball t}(v).

    Zero when ||v|| <= t, otherwise v scaled by (1 - t/||v||).
    """
    v = _as_field(v)
    if v.ndim > 1:
        return _by_row(shrink_l2, v, t)
    t = float(t)
    if not t >= 0:
        raise ValueError("l2 shrink threshold must be nonnegative")
    nv = np.linalg.norm(v)
    if nv <= t:
        return np.zeros_like(v)
    return v * (1.0 - t / nv)


def project_halfspace(v, bound=1.0):
    """Project componentwise onto {z : Re(z_i) <= bound_i}.

    Clips real parts, leaves imaginary parts alone. This is the dual
    feasible set of the nonnegative models.
    """
    bound = np.asarray(bound, dtype=np.float64)
    v = _as_field(v)
    if v.dtype == np.float64:
        return np.minimum(v, bound)
    return np.minimum(v.real, bound) + 1j * v.imag
