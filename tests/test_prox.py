"""Proximal map and projection invariants.

The shrink map is validated against a brute-force grid oracle for the
scalar prox problem min_z t z + (z - |v|)^2 / 2 over z >= 0, plus the
subgradient characterization v - z in t d|z|. Projections are checked for
membership, idempotence, optimality, and nonexpansiveness.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adl1.prox import (
    project_halfspace,
    project_l2_ball,
    project_linf_ball,
    shrink,
    shrink_l2,
)

from oracles import scalar_prox_grid

N_CASES = 1000


def _complex(rng, size):
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def test_shrink_matches_grid_oracle(rng):
    # Oracle granularity is hi/(steps-1); tolerance sits just above it.
    def objective(z, v, t):
        return t * z + 0.5 * (z - v) ** 2

    for _ in range(N_CASES):
        v = complex(*rng.standard_normal(2)) * 2.0
        t = float(rng.uniform(0.0, 2.0))
        z = complex(shrink(np.array([v]), t)[0])
        # The prox magnitude never exceeds |v|; the grid covers it fully.
        best = scalar_prox_grid(abs(v), t, objective, lo=0.0, hi=abs(v) + 1.0, steps=20001)
        assert abs(abs(z) - best) <= 1e-3
        if abs(z) > 0:
            phase_err = abs(z / abs(z) - v / abs(v))
            assert phase_err <= 1e-12


def test_shrink_subgradient_characterization(rng):
    # z = prox iff v - z lies in t times the subdifferential of |z|.
    for _ in range(N_CASES):
        n = int(rng.integers(1, 8))
        v = _complex(rng, n)
        t = float(rng.uniform(0.0, 1.5))
        z = shrink(v, t)
        d = v - z
        on = np.abs(z) > 0
        assert np.all(np.abs(np.abs(d[on]) - t) <= 1e-12)
        if t > 0:
            align = d[on] * np.conj(z[on])
            assert np.all(align.real >= -1e-12)
            assert np.all(np.abs(align.imag) <= 1e-10 * np.abs(align))
        assert np.all(np.abs(v[~on]) <= t + 1e-12)


def test_shrink_magnitude_formula(rng):
    v = _complex(rng, 300)
    t = 0.7
    z = shrink(v, t)
    assert np.allclose(np.abs(z), np.maximum(np.abs(v) - t, 0.0), atol=1e-13)
    assert np.array_equal(shrink(v, 0.0), v)
    assert np.all(shrink(np.zeros(5), 0.3) == 0)


def test_shrink_weighted_thresholds_match_scalar_loop(rng):
    v = _complex(rng, 40)
    t = rng.uniform(0.0, 2.0, size=40)
    z = shrink(v, t)
    ref = np.array([shrink(v[i : i + 1], t[i])[0] for i in range(40)])
    assert np.array_equal(z, ref)


def test_nonexpansiveness(rng):
    maps = [
        lambda u: shrink(u, 0.6),
        lambda u: project_linf_ball(u, 0.8),
        lambda u: project_l2_ball(u, 1.3),
        lambda u: shrink_l2(u, 0.9),
        lambda u: project_halfspace(u, 0.5),
    ]
    for _ in range(N_CASES):
        n = int(rng.integers(1, 12))
        u = _complex(rng, n) * 2
        v = _complex(rng, n) * 2
        dist = np.linalg.norm(u - v)
        for f in maps:
            assert np.linalg.norm(f(u) - f(v)) <= dist * (1 + 1e-12) + 1e-14


def test_projection_membership_and_idempotence(rng):
    for _ in range(N_CASES):
        v = _complex(rng, int(rng.integers(1, 10))) * 3
        r = float(rng.uniform(0.1, 2.0))

        p = project_linf_ball(v, r)
        assert np.all(np.abs(p) <= r * (1 + 1e-12))
        assert np.allclose(project_linf_ball(p, r), p, atol=1e-14)

        q = project_l2_ball(v, r)
        assert np.linalg.norm(q) <= r * (1 + 1e-12)
        assert np.allclose(project_l2_ball(q, r), q, atol=1e-14)

        h = project_halfspace(v, r)
        assert np.all(h.real <= r + 1e-12)
        assert np.array_equal(project_halfspace(h, r), h)


def test_projection_optimality(rng):
    # No feasible point sits closer to v than its projection.
    for _ in range(N_CASES):
        n = int(rng.integers(1, 8))
        v = _complex(rng, n) * 3
        r = float(rng.uniform(0.2, 1.5))
        w_ball = project_linf_ball(_complex(rng, n) * 3, r)
        w_l2 = project_l2_ball(_complex(rng, n) * 3, r)
        w_half = project_halfspace(_complex(rng, n) * 3, r)
        assert np.linalg.norm(v - project_linf_ball(v, r)) <= np.linalg.norm(v - w_ball) + 1e-12
        assert np.linalg.norm(v - project_l2_ball(v, r)) <= np.linalg.norm(v - w_l2) + 1e-12
        assert np.linalg.norm(v - project_halfspace(v, r)) <= np.linalg.norm(v - w_half) + 1e-12


def test_interior_points_pass_through_bitwise(rng):
    v = _complex(rng, 30) * 0.1
    assert np.array_equal(project_linf_ball(v, 1.0), v)
    assert np.array_equal(project_l2_ball(v, 100.0), v)
    assert np.array_equal(project_halfspace(v, 1.0), v)


def test_shrink_l2_is_residual_of_ball_projection(rng):
    for _ in range(200):
        v = _complex(rng, int(rng.integers(1, 9))) * 2
        t = float(rng.uniform(0.0, 2.0))
        assert np.allclose(shrink_l2(v, t), v - project_l2_ball(v, t), atol=1e-13)
    assert np.all(shrink_l2(_complex(rng, 4) * 0.01, 1.0) == 0)


def test_vector_radius_projection(rng):
    v = _complex(rng, 25) * 2
    r = rng.uniform(0.2, 1.5, size=25)
    p = project_linf_ball(v, r)
    assert np.all(np.abs(p) <= r * (1 + 1e-12))
    bound = rng.uniform(-1.0, 1.0, size=25)
    h = project_halfspace(v, bound)
    assert np.all(h.real <= bound + 1e-12)
    assert np.array_equal(h.imag, v.imag)


def test_infinite_linf_radius_is_the_identity(rng):
    # A ball of infinite radius contains every point; radius/max(|v|, radius)
    # would read inf/inf there.
    v = _complex(rng, 6) * 3
    for x in (v, v.real.copy()):
        assert np.array_equal(project_linf_ball(x, np.inf), x)
    r = np.array([np.inf, 0.5, np.inf, 2.0, np.inf, 0.1])
    p = project_linf_ball(v, r)
    finite = np.isfinite(r)
    assert np.array_equal(p[~finite], v[~finite])
    assert np.array_equal(p[finite], project_linf_ball(v[finite], r[finite]))

def test_validation_errors():
    v = np.ones(3, dtype=np.complex128)
    with pytest.raises(ValueError):
        shrink(v, -0.1)
    with pytest.raises(ValueError):
        shrink(v, np.array([0.1, -0.1, 0.2]))
    with pytest.raises(ValueError):
        project_linf_ball(v, 0.0)
    with pytest.raises(ValueError):
        project_linf_ball(v, -1.0)
    with pytest.raises(ValueError):
        project_l2_ball(v, -0.5)
    with pytest.raises(ValueError):
        shrink_l2(v, -2.0)


def test_nan_thresholds_and_radii_are_rejected():
    v = np.ones(3, dtype=np.complex128)
    nan = float("nan")
    for call in (lambda: shrink(v, nan),
                 lambda: shrink(v, np.array([0.1, nan, 0.2])),
                 lambda: project_linf_ball(v, nan),
                 lambda: project_linf_ball(v, np.array([1.0, nan, 1.0])),
                 lambda: project_l2_ball(v, nan),
                 lambda: shrink_l2(v, nan)):
        with pytest.raises(ValueError):
            call()


def test_l2_maps_take_a_scalar_or_one_radius_per_row(rng):
    v = _complex(rng, (3, 4)) * 2
    radii = np.array([[0.5], [1.0], [8.0]])
    for fn in (project_l2_ball, shrink_l2):
        # a (rows, 1) column maps each row with its own value
        got = fn(v, radii)
        for i in range(3):
            assert np.array_equal(got[i], fn(v[i], radii[i, 0]))
        assert np.array_equal(fn(v, 1.5), np.stack([fn(row, 1.5) for row in v]))
        # any other shape would pair rows with the wrong values
        for bad in (radii[:2], [[0.5], [1.0]], radii.T, np.ones((3, 4)), np.ones(3)):
            with pytest.raises(ValueError):
                fn(v, bad)
        for bad in (np.ones(4), np.ones((1, 1)), [0.5]):
            with pytest.raises(ValueError):
                fn(v[0], bad)
        with pytest.raises(ValueError):
            fn(v, np.array([[0.5], [np.nan], [1.0]]))


@given(
    re=st.floats(-1e6, 1e6),
    im=st.floats(-1e6, 1e6),
    t=st.floats(0.0, 1e6),
)
@settings(max_examples=200, deadline=None)
def test_shrink_scalar_property(re, im, t):
    v = np.array([re + 1j * im])
    z = shrink(v, t)[0]
    mag = abs(v[0])
    assert abs(abs(z) - max(mag - t, 0.0)) <= 1e-9 * max(1.0, mag)
    if mag > t > 0:
        # Shrinking moves toward the origin, never past it.
        assert abs(z) <= mag


@given(
    data=st.lists(st.tuples(st.floats(-100, 100), st.floats(-100, 100)), min_size=1, max_size=8),
    radius=st.floats(0.01, 50),
)
@settings(max_examples=200, deadline=None)
def test_l2_projection_property(data, radius):
    v = np.array([a + 1j * b for a, b in data])
    p = project_l2_ball(v, radius)
    assert np.linalg.norm(p) <= radius * (1 + 1e-12)
    assert np.allclose(project_l2_ball(p, radius), p, atol=1e-12)
