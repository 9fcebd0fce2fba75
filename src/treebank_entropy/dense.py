"""The dense layer of :mod:`.entropy`: the characteristic matrix M as an
array, the solve of I - M, the spectral radius of a given matrix, and the
part of the radius of a grammar that runs only on a block whose power steps
leave the bracket open (Noda iteration).

No command on the count path runs any of it, so :mod:`.entropy` imports
this module where it runs; its public names are still found there (PEP 562).
"""

from __future__ import annotations

import math

import numpy as np

from .entropy import RADIUS_TOL, _children, _entries, _sparse_radius
from .errors import DivergentGrammarError, NumericalError, StructuralError
from .grammar import Pcfg

#: Relative residual bound for the linear solve, in the infinity norm.
SOLVE_RESIDUAL_TOL = 1e-8

#: Lower bound on every component of (I - M) c, c = (I - M)^-1 1, that
#: certifies a spectral radius below one.
CERTIFICATE_MARGIN = 0.5

#: The largest dense matrix built, in bytes: 1 GiB, n x n for n up to
#: 11,585.  The solve and the Noda iteration each hold about three such
#: matrices at once (M, its shifted copy and LAPACK's factor).
DENSE_LIMIT_BYTES = 2**30


def _dense(n: int, what: str) -> np.ndarray:
    """An n x n zero matrix; :class:`NumericalError` if it would take more
    than DENSE_LIMIT_BYTES."""
    if 8 * n * n > DENSE_LIMIT_BYTES:
        most = math.isqrt(DENSE_LIMIT_BYTES // 8)
        raise NumericalError(f"{what} needs a dense {n} x {n} matrix, above the bound "
                             f"of {most} x {most} ({DENSE_LIMIT_BYTES / 2**30:g} GiB)")
    return np.zeros((n, n))


def characteristic_matrix(grammar: Pcfg) -> np.ndarray:
    """Expected non-terminal production counts per single expansion.

    Rows and columns follow `grammar.nonterminals` order.  A matrix above
    DENSE_LIMIT_BYTES raises :class:`NumericalError`.
    """
    matrix = _dense(len(grammar.nonterminals), "the characteristic matrix")
    rows, cols, weights = _entries(grammar, *_children(grammar)[:2])
    matrix[rows, cols] = weights
    return matrix


def _finite_nonnegative_square(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise StructuralError("expected a square matrix")
    if not np.isfinite(m).all() or (m < 0).any():
        raise StructuralError("expected a finite non-negative matrix")
    return m


def _noda(size: int, rows, cols, weights, x, upper: float, renumber=None) -> float:
    """The Collatz-Wielandt upper bound `upper` on the spectral radius of
    the irreducible block B of :func:`~.entropy._perron_upper_bound`,
    narrowed by Noda iteration from its positive iterate x: vertex i is put
    at ``renumber()[i]`` when `renumber` is given.  A block above
    DENSE_LIMIT_BYTES raises :class:`NumericalError`."""
    if renumber is not None:
        at = renumber()
        rows, cols, placed = at[rows], at[cols], np.empty_like(x)
        placed[at] = x
        x = placed
    # A small spectral gap: shifted inverse iteration (Noda 1971) at the
    # current upper bound converges quadratically, and the bound falls
    # monotonically until rounding stops it.
    b = _dense(size, "Noda iteration on a strongly connected block")
    b[rows, cols] = weights
    while True:
        try:
            y = np.linalg.solve(upper * np.eye(size) - b, x)
        except np.linalg.LinAlgError:  # upper is an eigenvalue: rho itself
            return upper
        if not (y > 0).all():  # rounding put the shift at or below rho
            return upper
        x = y / y.max()
        ratio = (b @ x) / x
        lo, hi = float(ratio.min()), float(ratio.max())
        if not hi < upper:
            return upper
        upper = hi
        if hi - lo <= RADIUS_TOL * hi:
            return upper


def spectral_radius(matrix: np.ndarray) -> float:
    """Largest eigenvalue modulus of a non-negative square matrix, as a
    certified upper bound; no eigensolver runs.

    rho(M) is the largest radius among the strongly connected blocks of M's
    non-zero pattern.  A 1x1 block's radius is its diagonal entry, exactly,
    so triangular, nilpotent and Jordan-type matrices come out exact: the
    grammar S -> a S | A, A -> b A | c, every rule at 0.5, gives
    M = [[.5, .5], [0, .5]] and rho = 0.5, where power iteration stalls.
    A larger block B is irreducible, and any x > 0 brackets its radius,
    min_i (Bx)_i/x_i <= rho(B) <= max_i (Bx)_i/x_i (Collatz-Wielandt;
    Wielandt 1950).  Iteration on B narrows the bracket until its width is
    at most RADIUS_TOL of the upper end; that end, the largest over the
    blocks, is returned.  The power steps touch only the non-zero entries.
    """
    m = _finite_nonnegative_square(matrix)
    rows, cols = np.nonzero(m)
    return _sparse_radius(m.shape[0], rows, cols, m[rows, cols])


def solve_system(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """Solve (I - M) x = v for a finite non-negative M with spectral radius < 1.

    `vector` is one right-hand side or an (n, k) block; x has its shape.
    One factorization solves [1 | v], and its first column c = (I - M)^-1 1
    certifies convergence: I - M has non-positive off-diagonal entries, and
    such a matrix is a non-singular M-matrix (equivalently rho(M) < 1) when
    some c >= 0 has (I - M) c > 0 (Berman & Plemmons, *Nonnegative Matrices
    in the Mathematical Sciences*, ch. 6).  c is accepted, unrefined, when
    it is finite and positive and (I - M) c > 1/2 in every component.  A
    failed certificate or an exactly singular I - M raises
    :class:`DivergentGrammarError`; a negative or non-finite entry of M
    raises :class:`StructuralError`.

    Each column of x is refined until its residual is at most
    ``1e-8 * max|v_j|``, the bound of its own right-hand side; failing
    that, the condition estimate is reported.
    """
    m = _finite_nonnegative_square(matrix)
    v = np.asarray(vector, dtype=np.float64)
    n = m.shape[0]
    if v.shape[0] != n:
        raise StructuralError("matrix and vector dimensions disagree")
    rhs = v.reshape(n, -1)
    a = np.eye(n) - m
    try:
        solution = np.linalg.solve(a, np.column_stack((np.ones(n), rhs)))
    except np.linalg.LinAlgError:  # I - M is exactly singular
        solution = np.full((n, 1), np.nan)
    c = solution[:, 0]
    # Exact arithmetic gives (I - M) c = 1; the margin absorbs rounding.
    if not (np.isfinite(c).all() and (c > 0).all()
            and (a @ c > CERTIFICATE_MARGIN).all()):
        raise DivergentGrammarError(
            "no positive certificate (I - M)^-1 1: spectral radius >= 1, "
            "expected subtree measures diverge"
        )
    x = solution[:, 1:]
    bound = SOLVE_RESIDUAL_TOL * np.max(np.abs(rhs), axis=0)
    for _ in range(3):
        residual = a @ x - rhs
        over = ~(np.max(np.abs(residual), axis=0) <= bound)  # nan is over
        if not over.any():
            return x.reshape(v.shape)
        x[:, over] -= np.linalg.solve(a, residual[:, over])
    residual = np.max(np.abs(a @ x - rhs), axis=0)
    j = int(np.argmax(residual - bound))
    raise NumericalError(
        f"residual {residual[j]:.3e} exceeds {bound[j]:.3e} "
        f"(condition estimate {np.linalg.cond(a, 1):.3e})"
    )
