"""Adaptive Simpson quadrature for smooth one-dimensional integrands.

Nothing fancy: recursive interval bisection with the Richardson update
S2 + (S2 - S1)/15, which is plenty for the smooth or exponentially decaying
integrands this package meets (circle integrals of quadratic forms, sin(x)/x,
hyperbolic-ratio tails).
"""

from __future__ import annotations

_MAX_DEPTH = 60


def _simpson(f, a, fa, b, fb):
    m = 0.5 * (a + b)
    fm = f(m)
    return m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def adaptive_simpson(f, a: float, b: float, tol: float) -> float:
    """Integrate ``f`` over [a, b] to absolute tolerance ``tol``.

    Raises:
        ValueError: if the recursion depth limit is reached before
            the local error estimate drops below the local tolerance.
    """
    if not b > a:
        if b == a:
            return 0.0
        raise ValueError(f"need a < b, got [{a}, {b}]")
    fa, fb = f(a), f(b)
    m, fm, whole = _simpson(f, a, fa, b, fb)
    return _recurse(f, a, fa, m, fm, b, fb, tol, whole, _MAX_DEPTH)


def _recurse(f, a, fa, m, fm, b, fb, tol, whole, depth):
    lm, flm, left = _simpson(f, a, fa, m, fm)
    rm, frm, right = _simpson(f, m, fm, b, fb)
    err = left + right - whole
    if abs(err) <= 15.0 * tol:
        return left + right + err / 15.0
    if depth <= 0:
        raise ValueError(
            f"adaptive Simpson did not converge on [{a}, {b}] (residual {err:.3e})"
        )
    return _recurse(f, a, fa, lm, flm, m, fm, tol / 2.0, left, depth - 1) + _recurse(
        f, m, fm, rm, frm, b, fb, tol / 2.0, right, depth - 1
    )
