"""Proximal and projection primitives.

All five maps act componentwise or on the whole vector over C, preserve
phases, and define sign(0) = 0. Thresholds and radii may be scalars or
per-component vectors (vectors support the weighted-l1 variants). A negative
or NaN threshold or radius raises ValueError, and so does an l-infinity
radius of zero.

The two l2 maps act on the last axis: each row of a 2-D array is a vector
of its own (a lane), with one radius or threshold for all rows or a
(rows, 1) column of them (any other shape raises ValueError), and takes the
bits of its 1-D map (``models.row_norm``).

A map returns float64 for real input and complex128 for complex input. On
real input it computes, bit for bit, the real part of what it computes on
that input embedded with zero imaginary parts, except that the two l2 maps
take a norm, whose sum may round differently in the two dtypes.
"""

from __future__ import annotations

import numpy as np

from .models import row_norm

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


def _l2_rows(v, t, what):
    """v in its field, t checked (a nonnegative scalar, or a (rows, 1)
    column of them), the norm of each row of v as a (rows, 1) column (a
    scalar for 1-D v), and where that norm is at most t."""
    v = _as_field(v)
    t = np.asarray(t, dtype=np.float64)
    if t.ndim == 0:
        t = float(t)
        ok = t >= 0  # written so that NaN fails too
    else:
        ok = v.ndim > 1 and t.shape == v.shape[:-1] + (1,) and np.all(t >= 0)
    if not ok:
        raise ValueError(f"{what} must be a nonnegative scalar or a (rows, 1) column")
    nv = row_norm(v)
    if v.ndim > 1:
        nv = nv[..., None]
    return v, t, nv, nv <= t


def _outside_rows(inside, v_inside, scaled):
    """``scaled`` with the rows ``inside`` marks set to ``v_inside``, whose
    bits no product can give (+0, not -0). Most calls have no row inside and
    skip the select, which costs as much as the rest of a one-lane map."""
    return np.where(inside, v_inside, scaled) if np.count_nonzero(inside) else scaled


def project_l2_ball(v, delta):
    """Project each row onto the l2 ball of radius delta centered at the origin."""
    v, delta, nv, inside = _l2_rows(v, delta, "l2 ball radius")
    # nv + inside is nv on a row outside, and spares a zero row inside a 0/0.
    return _outside_rows(inside, v, v * (delta / (nv + inside)))


def shrink_l2(v, t):
    """Shrink each row toward the origin: v - P_{l2 ball t}(v).

    Zero when ||v|| <= t, otherwise v scaled by (1 - t/||v||).
    """
    v, t, nv, inside = _l2_rows(v, t, "l2 shrink threshold")
    return _outside_rows(inside, 0.0, v * (1.0 - t / (nv + inside)))


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
