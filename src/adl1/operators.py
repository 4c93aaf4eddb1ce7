"""Matrix-free sensing operators.

Every operator maps C^n -> C^m through ``apply`` and C^m -> C^n through
``adjoint``. Solvers never form matrices; they only call these two methods.
Operators with orthonormal rows (A A* = I) advertise it through the
``orthonormal_rows`` flag, from which the dual solver picks its exact or
inexact update steps. ``signal_n`` and ``signal`` name the signal block of
the variables: all n, except on the l1/l1 model's ``AugmentedOperator``.
``make_operator(kind, n, m, rng)`` draws every random operator;
``make_partial_transform`` also takes given rows or signs.

Vectors are complex128 or float64 arrays. A single operator maps one
vector of shape (n,) (or (m,) for ``adjoint``). A stacked operator
(``stack_operators``: T partial transforms of one kind and shape) maps
lanes, independent problems that one call maps together: lane i of a
(T, n) array by its i-th matrix, and ``take`` keeps some of its lanes. A
lane's result has the bits the 1-D call of its operator gives on that lane
alone. An operator whose ``real_valued`` property is True (the partial
Walsh-Hadamard and DCT transforms, and an augmented operator on either)
maps float64 input to float64 output, so a solve on real data runs in real
arithmetic. Every other operator computes in complex128, embedding real
input with zero imaginary parts.

The partial DCT imports ``scipy.fft`` at its first transform, so a run on
Walsh-Hadamard or dense operators alone never loads scipy.
"""

from __future__ import annotations

import copy
import functools

import numpy as np

from .errors import ConfigError, DimensionMismatchError
from .models import take_column

__all__ = [
    "SensingOperator",
    "DenseOperator",
    "PartialWalshHadamardOperator",
    "PartialDCTOperator",
    "AugmentedOperator",
    "estimate_lambda_max",
    "fwht",
    "make_partial_transform",
    "stack_operators",
    "PARTIAL_TRANSFORMS",
    "OPERATOR_KINDS",
    "make_operator",
]


def _coerce(x, n, lanes, kind, method):
    """Check the shape of x, (lanes, n) for a stacked operator and (n,) for
    any other (``lanes`` None); cast x to complex128, or to float64 when it
    is real.

    ``kind`` and ``method`` name the call in the error message.
    """
    x = np.asarray(x)
    want = (lanes, n) if lanes else (n,)
    if x.shape != want:
        raise DimensionMismatchError(f"{kind}.{method}: expected shape {want}, got {x.shape}")
    if x.dtype != np.complex128 and x.dtype != np.float64:
        x = x.astype(np.complex128 if np.iscomplexobj(x) else np.float64)
    return x


class SensingOperator:
    """Base class: a linear map C^n -> C^m with an explicit adjoint.

    Subclasses implement ``_apply`` and ``_adjoint`` on validated inputs:
    complex128 or float64 arrays of shape (n,), or (lanes, n) for a stacked
    operator. A subclass
    whose matrix is real and whose transform keeps float64 input in float64
    declares ``real_valued``;
    otherwise its outputs are complex128. Instances are immutable after
    construction and safe to share across threads.
    """

    kind = "abstract"
    # None for a single operator, which maps one vector; a stacked operator
    # holds one matrix per lane and maps exactly that many lanes.
    lanes = None

    def __init__(self, m, n, orthonormal_rows):
        if m <= 0 or n <= 0:
            raise ValueError(f"operator dimensions must be positive, got ({m}, {n})")
        self.m = int(m)
        self.n = self.signal_n = int(n)
        self.orthonormal_rows = bool(orthonormal_rows)
        self._lambda_max_cache = None

    @property
    def shape(self):
        return (self.m, self.n)

    @property
    def real_valued(self):
        """True when A is real and maps float64 vectors to float64 vectors.

        Solves on such an operator run in float64 whenever their data is
        real. False here, so an operator computes in complex128 unless it
        declares otherwise.
        """
        return False

    def signal(self, x):
        """The signal estimate an iterate x holds: x itself, all ``signal_n`` = n entries."""
        return x

    def apply(self, x):
        """Return A x for x of shape (n,), or (lanes, n) lane by lane."""
        return self._apply(_coerce(x, self.n, self.lanes, self.kind, "apply"))

    def adjoint(self, y):
        """Return A* y for y of shape (m,), or (lanes, m) lane by lane."""
        return self._adjoint(_coerce(y, self.m, self.lanes, self.kind, "adjoint"))

    def lambda_max(self):
        """Largest eigenvalue of A*A, memoized.

        Returns 1.0 immediately for orthonormal-rows operators; otherwise
        runs a deterministic power iteration once and caches the result.
        """
        if self.orthonormal_rows:
            return 1.0
        if self._lambda_max_cache is None:
            self._lambda_max_cache = estimate_lambda_max(self)
        return self._lambda_max_cache

    def _apply(self, x):
        raise NotImplementedError

    def _adjoint(self, y):
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {self.m}x{self.n} orthonormal_rows={self.orthonormal_rows}>"


class DenseOperator(SensingOperator):
    """Operator backed by an explicit complex matrix."""

    kind = "dense"

    def __init__(self, matrix, orthonormal_rows=False):
        matrix = np.asarray(matrix)
        if matrix.ndim != 2:
            raise DimensionMismatchError(f"dense operator needs a 2-D matrix, got shape {matrix.shape}")
        if matrix.dtype != np.complex128:
            matrix = matrix.astype(np.complex128)
        if not np.all(np.isfinite(matrix.real)) or not np.all(np.isfinite(matrix.imag)):
            raise ValueError("operator matrix contains nonfinite entries")
        super().__init__(matrix.shape[0], matrix.shape[1], orthonormal_rows)
        self.matrix = matrix
        self._matrix_h = matrix.conj().T.copy()
        if orthonormal_rows:
            # One randomized probe; catches mislabeled operators at construction.
            rng = np.random.default_rng(0)
            y = rng.standard_normal(self.m) + 1j * rng.standard_normal(self.m)
            err = np.linalg.norm(matrix @ (self._matrix_h @ y) - y)
            if err > 1e-8 * np.linalg.norm(y):
                raise ValueError("orthonormal_rows=True but A A* differs from the identity")

    def _apply(self, x):
        return self.matrix @ x

    def _adjoint(self, y):
        return self._matrix_h @ y


# Largest Hadamard factor is 2**_MAX_FACTOR_LOG2 = 16. The split sets the
# rounding of every transform, and the dual solver's equality residual is
# checked at that rounding floor (acceptance criterion 1, bound 1e-10 at
# n=1024, gamma=1.618): the (16, 8, 8) split measures 4.0e-11 there, while
# (32, 32) measures 2.0e-10 and (8, 8, 4, 4) 1.4e-10. Smaller factors also
# mean more, and less efficient, BLAS calls.
_MAX_FACTOR_LOG2 = 4


@functools.lru_cache(maxsize=None)
def _factor_sizes(n):
    """Split n = 2**e into ceil(e / 4) nearly equal power-of-two factors, largest first."""
    e = n.bit_length() - 1
    k = -(-e // _MAX_FACTOR_LOG2)
    if k == 0:
        return ()
    q, r = divmod(e, k)
    return tuple(1 << (q + (i < r)) for i in range(k))


@functools.lru_cache(maxsize=None)
def _hadamard_factor(f, pairs):
    """Read-only f x f Sylvester Hadamard matrix; kron(H_f, I_2) when ``pairs``.

    Entry (i, j) is (-1)**popcount(i & j), computed in float (the popcount
    itself is uint8).
    """
    i = np.arange(f)
    parity = (np.bitwise_count(i[:, None] & i[None, :]) % 2).astype(np.float64)
    h = 1.0 - 2.0 * parity
    if pairs:
        h = np.kron(h, np.eye(2))
    h.setflags(write=False)
    return h


def fwht(x):
    """In-order (natural/Hadamard) Walsh-Hadamard transform, unnormalized.

    Returns H x along the last axis, with H the n x n Sylvester-construction
    Hadamard matrix, as a new array of x's shape: complex128 for complex
    ``x``, float64 otherwise. ``x`` must be a nonempty array of at least one
    axis whose last axis has power-of-two length n; anything else raises
    ValueError. Each row of an (..., n) array transforms by the products a
    1-D call makes, so it has the same bits.

    Sylvester's identity H_(ab) = H_a (x) H_b factors H into k = ceil(log2(n)
    / 4) Hadamard matrices of sizes f_1, ..., f_k <= 16. Viewing x as a
    k-way tensor, each factor is one BLAS matrix product along its axis:
    2 n (f_1 + ... + f_k) flops for real x. Complex x is transformed as its
    interleaved float64 view, so real and imaginary parts share every
    product at twice the flops.
    """
    x = np.asarray(x)
    if x.ndim == 0 or x.size == 0:
        raise ValueError(f"fwht needs a nonempty array of at least one axis, got shape {x.shape}")
    n = x.shape[-1]
    if n & (n - 1):
        raise ValueError(f"fwht needs a power-of-two length, got {n}")
    cplx = np.iscomplexobj(x)
    a = np.ascontiguousarray(x, dtype=np.complex128 if cplx else np.float64)
    sizes = _factor_sizes(n)
    if not sizes:
        return a.copy()
    v = a.view(np.float64) if cplx else a
    rows = p = a.size // n
    for f in sizes[:-1]:
        v = np.matmul(_hadamard_factor(f, False), v.reshape(p, f, -1))
        p *= f
    # The last axis is innermost (next to the re/im pair): multiply from the
    # right by the symmetric factor instead of batching 2-column products.
    # One product per row: numpy takes a one-row product as a matrix-vector
    # product, which rounds unlike the rows of a larger one.
    f = sizes[-1]
    v = np.matmul(v.reshape(rows, -1, 2 * f if cplx else f), _hadamard_factor(f, cplx))
    return (v.view(np.complex128) if cplx else v).reshape(a.shape)


class _PartialTransformOperator(SensingOperator):
    """A = R T D for +/-1 column signs D, a real orthonormal transform T and
    a selector R of distinct ``rows``. Subclasses apply T and T*, looking the
    transform up on its module at each call.

    A stacked operator holds signs of shape (lanes, n) and rows of shape
    (lanes, m), lane i's in row i; ``stack_operators`` builds it. ``_flat``
    holds the rows as indices into the flattened (lanes, n) array, or the
    (n,) vector of a single operator, so that R is one gather.
    """

    def __init__(self, n, rows, signs):
        rows = np.asarray(rows, dtype=np.intp)
        if rows.ndim != 1 or rows.size == 0:
            raise ValueError("rows must be a nonempty 1-D index list")
        if rows.size > n or np.unique(rows).size != rows.size:
            raise ValueError("row indices must be distinct")
        if rows.min() < 0 or rows.max() >= n:
            raise ValueError(f"row indices must lie in [0, {n})")
        signs = np.asarray(signs, dtype=np.float64)
        if signs.shape != (n,) or not np.all(np.abs(signs) == 1.0):
            raise ValueError("signs must be a length-n vector of +/-1")
        super().__init__(rows.size, n, orthonormal_rows=True)
        self.rows = self._flat = rows
        self.signs = signs

    @property
    def real_valued(self):
        return True

    def _with_lanes(self, signs, rows):
        """This operator's kind and shape with the ``signs`` and ``rows`` of
        one lane (1-D) or of stacked lanes (2-D)."""
        out = copy.copy(self)
        out.signs, out.rows = signs, rows
        out.lanes = rows.shape[0] if rows.ndim == 2 else None
        out._flat = rows + self.n * np.arange(out.lanes)[:, None] if out.lanes else rows
        return out

    def take(self, lanes):
        """The stacked operator of the lanes that the index array or mask
        ``lanes`` selects, or of lane ``lanes`` alone, unstacked, for an
        integer."""
        return self._with_lanes(self.signs[lanes], self.rows[lanes])

    def _select(self, v):
        """R v: the ``rows`` entries of v's last axis, lane by lane."""
        return v.reshape(-1)[self._flat]

    def _scatter(self, y):
        """R* y: y placed at ``rows`` of zero vectors of length n and y's dtype."""
        full = np.zeros(y.shape[:-1] + (self.n,), dtype=y.dtype)
        full.reshape(-1)[self._flat] = y
        return full


class PartialWalshHadamardOperator(_PartialTransformOperator):
    """Randomized partial Walsh-Hadamard sensing operator.

    A = (1/sqrt(n)) * R H D where D is a +/-1 diagonal, H the natural-ordered
    Hadamard matrix, and R selects ``rows``. Rows are orthonormal by
    construction. ``n`` must be a power of two.
    """

    kind = "partial-walsh-hadamard"

    def __init__(self, n, rows, signs):
        if n <= 0 or n & (n - 1) != 0:
            raise ValueError(f"transform size must be a power of two, got {n}")
        super().__init__(n, rows, signs)
        self._scale = 1.0 / np.sqrt(n)

    def _apply(self, x):
        # Scaled after the row selection: m multiplies, not n.
        return self._select(fwht(self.signs * x)) * self._scale

    def _adjoint(self, y):
        return self.signs * fwht(self._scatter(y)) * self._scale


def _dct(x, inverse):
    """Orthonormal DCT-II of x along its last axis, or its inverse when
    ``inverse``, in x's dtype.

    ``scipy.fft`` is imported at the first call, and ``dct``/``idct`` are
    looked up on it at every call. Complex x of shape (..., n) is
    transformed as its (..., n, 2) float64 view along axis -2: one pass over
    the real and imaginary parts, bit for bit the complex transform.
    """
    import scipy.fft

    transform = scipy.fft.idct if inverse else scipy.fft.dct
    if x.dtype == np.complex128:
        pairs = transform(x.view(np.float64).reshape(x.shape + (2,)), type=2, norm="ortho",
                          axis=-2)
        return pairs.view(np.complex128).reshape(x.shape)
    return transform(x, type=2, norm="ortho")


class PartialDCTOperator(_PartialTransformOperator):
    """Randomized partial DCT sensing operator.

    A = R C D with C the orthonormal DCT-II (any n, no power-of-two
    restriction), D a +/-1 diagonal, R a row selector. Rows are orthonormal.
    """

    kind = "partial-dct"

    def _apply(self, x):
        return self._select(_dct(self.signs * x, False))

    def _adjoint(self, y):
        return self.signs * _dct(self._scatter(y), True)


# The partial transforms by the kind name ``make_operator`` and the CLI take.
PARTIAL_TRANSFORMS = {"wht": PartialWalshHadamardOperator, "dct": PartialDCTOperator}


class AugmentedOperator(SensingOperator):
    """[A, nu I] / sqrt(1 + nu^2): the base operator extended by a scaled identity.

    Maps C^(n+m) -> C^m. Inherits orthonormal rows from the base operator,
    since A_hat A_hat* = (A A* + nu^2 I) / (1 + nu^2), and its lanes, so a
    stacked base makes it stacked.

    The l1/l1 model min ||x||_1 + ||Ax-b||_1/nu is, up to the factor nu,
    basis pursuit with A_hat and ``data(b)`` on xh = (nu x; b - Ax): the
    signal block is the first ``signal_n`` = n entries, scaled by nu. On a
    stacked base, nu may be a (lanes, 1) column, one value per lane.
    """

    kind = "augmented"

    def __init__(self, base, nu):
        if not isinstance(base, SensingOperator):
            raise TypeError("base must be a SensingOperator")
        if not np.all(nu > 0):
            raise ValueError(f"nu must be positive, got {nu}")
        super().__init__(base.m, base.n + base.m, orthonormal_rows=base.orthonormal_rows)
        self.base = base
        self.lanes = base.lanes
        self.signal_n = base.n
        self.nu = nu if np.ndim(nu) else float(nu)
        self._scale = 1.0 / np.sqrt(1.0 + nu * nu)

    @property
    def real_valued(self):
        return self.base.real_valued

    def signal(self, xh):
        """xh[..., :n] * (1/nu), as numpy divides complex xh, so float64 and
        complex128 iterates give the same real parts. xh must be longer than n.
        """
        n = self.signal_n
        if xh.shape[-1] <= n:
            raise ValueError(f"augmented solution must be longer than n={n}, got {xh.shape[-1]}")
        return xh[..., :n] * (1.0 / self.nu)

    def take(self, lanes):
        return AugmentedOperator(self.base.take(lanes), take_column(self.nu, lanes))

    def data(self, b):
        """The augmented data nu b / sqrt(1 + nu^2) for data b of the base operator."""
        return (self.nu / np.sqrt(1.0 + self.nu * self.nu)) * np.asarray(
            b, dtype=np.result_type(b, np.float64))

    def _apply(self, x):
        head = x[..., : self.base.n]
        tail = x[..., self.base.n :]
        return (self.base.apply(head) + self.nu * tail) * self._scale

    def _adjoint(self, y):
        head = self.base.adjoint(y)
        out = np.empty(y.shape[:-1] + (self.n,), dtype=np.result_type(head, y))
        out[..., : self.base.n] = head
        np.multiply(self.nu, y, out=out[..., self.base.n :])
        out *= self._scale
        return out


def estimate_lambda_max(op, tol=1e-6, max_iter=200):
    """Estimate the largest eigenvalue of A*A by power iteration from a
    seeded (seed 0) random start.

    Parameters
    ----------
    op : SensingOperator
    tol : float
        Stop when the Rayleigh quotient changes by at most ``tol`` relative.
    max_iter : int
        Iteration cap; the estimate so far is returned when it is hit.

    Returns
    -------
    float
    """
    rng = np.random.default_rng(0)
    v = rng.standard_normal(op.n) + 1j * rng.standard_normal(op.n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iter):
        w = op.adjoint(op.apply(v))
        lam_new = float(np.real(np.vdot(v, w)))
        nw = np.linalg.norm(w)
        if nw == 0.0:
            # v is in the null space of A; for a nonzero operator this has
            # probability zero from a random start.
            return 0.0
        v = w / nw
        if abs(lam_new - lam) <= tol * max(abs(lam_new), np.finfo(float).tiny):
            return lam_new
        lam = lam_new
    return lam


def make_partial_transform(kind, n, rng, m=None, rows=None, signs=None):
    """Partial transform of a kind in PARTIAL_TRANSFORMS. Signs and then m
    distinct rows are drawn from ``rng`` when not given.
    """
    if signs is None:
        signs = rng.choice([-1.0, 1.0], size=n)
    if rows is None:
        rows = rng.choice(n, size=m, replace=False)
    return PARTIAL_TRANSFORMS[kind](n, rows, signs)


def stack_operators(ops):
    """One stacked operator whose lane i is ``ops[i]``: partial transforms of
    one kind and shape. One operator comes back as it is."""
    first = ops[0]
    if len(ops) == 1:
        return first
    if not isinstance(first, _PartialTransformOperator) or first.lanes is not None or any(
            type(op) is not type(first) or op.shape != first.shape or op.lanes is not None
            for op in ops):
        raise ValueError("only single partial transforms of one kind and shape stack")
    return first._with_lanes(np.stack([op.signs for op in ops]), np.stack([op.rows for op in ops]))


# Kinds of randomly drawn operator that ``make_operator`` builds.
OPERATOR_KINDS = (*PARTIAL_TRANSFORMS, "orthgauss")


def make_operator(kind, n, m, rng):
    """Draw a random m x n operator of a kind in OPERATOR_KINDS from ``rng``.

    ``wht`` is the partial Walsh-Hadamard operator (n a power of two) and
    ``dct`` the partial DCT. ``orthgauss`` is dense, its rows an orthonormal
    basis of an m x n Gaussian draw's (A A* = I for n >= m, any n). Raises
    ConfigError for any other kind.
    """
    if kind in PARTIAL_TRANSFORMS:
        return make_partial_transform(kind, n, rng, m)
    if kind == "orthgauss":
        if m > n:
            raise ValueError(f"need m <= n to orthonormalize rows, got m={m}, n={n}")
        q, _ = np.linalg.qr(rng.standard_normal((m, n)).T)  # n x m, orthonormal columns
        return DenseOperator(q.T, orthonormal_rows=True)
    raise ConfigError("unknown operator kind %r (choose from %s)" % (kind, ", ".join(OPERATOR_KINDS)))
