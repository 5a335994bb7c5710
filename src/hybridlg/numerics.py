"""Small dense complex linear algebra: cubic roots, their coalescence test,
4x4 eigenvalues, and the package's one door to ``scipy.linalg``.

Everything here is a pure function of its inputs and safe to call from any
number of workers.  The cubic solver is a hand-rolled Cardano implementation
(it doubles as an independent cross-check of the dense eigensolver); the
eigensolver delegates to numpy.  :func:`expm` and :func:`schur` import
``scipy.linalg`` on their first call: the K3 engine needs only the Schur
form, of the normal generator at gamma = 0, and expm serves the exact
single-state evolution and the closed-form fallback of ``blochsol``, so a
run without them does not pay for its import.
"""

from typing import NamedTuple

import numpy as np

from .errors import EigensolverError

# primitive cube root of unity, e^{i 2 pi / 3}
OMEGA = complex(-0.5, 0.5 * np.sqrt(3.0))

#: pairwise root gap, relative to the root scale max(1, |x|), below which
#: roots count as coalesced; mode expansions divide by these gaps
COALESCENCE_GAP = 1e-6


class CubicCoefficients(NamedTuple):
    """Coefficients (a, b, c) of the monic cubic x^3 + a x^2 + b x + c."""

    a: complex
    b: complex
    c: complex


def _cube_roots(z):
    """All three complex cube roots of z (principal first)."""
    principal = z ** (1.0 / 3.0) if z != 0 else 0.0j
    return (principal, principal * OMEGA, principal * OMEGA**2)


def solve_cubic_cardano(a, b, c):
    """Solve x^3 + a x^2 + b x + c = 0 by Cardano's method.

    Depressed-cubic intermediates: P = (3b - a^2)/3, Q = (2a^3 - 9ab + 27c)/27,
    u, v the cube roots of -Q/2 +/- sqrt(Q^2/4 + P^3/27).  The branch of v is
    chosen to satisfy the pairing constraint u*v = -P/3 (the cube root
    minimizing |u*v + P/3|), which avoids the classic wrong-branch failure near
    a vanishing discriminant.  Returns the three roots as a tuple sorted by
    (real, imag).
    """
    a, b, c = complex(a), complex(b), complex(c)
    for name, z in (("a", a), ("b", b), ("c", c)):
        if not (np.isfinite(z.real) and np.isfinite(z.imag)):
            raise ValueError(f"non-finite cubic coefficient {name}={z!r}")

    P = (3.0 * b - a * a) / 3.0
    Q = (2.0 * a**3 - 9.0 * a * b + 27.0 * c) / 27.0
    disc = np.sqrt(complex(Q * Q / 4.0 + P**3 / 27.0))
    t_plus = -Q / 2.0 + disc
    t_minus = -Q / 2.0 - disc

    # Work from the larger-magnitude branch; recover the partner through the
    # product identity t_plus * t_minus = -P^3/27 to dodge cancellation.
    if abs(t_plus) >= abs(t_minus):
        big, big_is_u = t_plus, True
    else:
        big, big_is_u = t_minus, False

    if big == 0:
        u = v = 0.0j  # triple root at -a/3
    else:
        w = big ** (1.0 / 3.0)
        partner3 = -(P**3) / (27.0 * big)
        partner = min(_cube_roots(partner3), key=lambda z: abs(w * z + P / 3.0))
        u, v = (w, partner) if big_is_u else (partner, w)

    shift = a / 3.0
    return tuple(sorted(
        (
            u + v - shift,
            OMEGA * u + OMEGA**2 * v - shift,
            OMEGA**2 * u + OMEGA * v - shift,
        ),
        key=lambda z: (z.real, z.imag),
    ))


def coalesced(roots) -> bool:
    """True when two of ``roots`` lie closer than ``COALESCENCE_GAP`` times
    the root scale max(1, |x|)."""
    scale = max(1.0, *(abs(x) for x in roots))
    return any(abs(roots[i] - roots[j]) < COALESCENCE_GAP * scale
               for i in range(len(roots)) for j in range(i + 1, len(roots)))


def sort_complex(values):
    """Deterministic total order: by real part, then imaginary part."""
    values = np.asarray(values)
    return values[np.lexsort((values.imag, values.real))]


def eigenvalues_4x4(matrix):
    """Eigenvalues of a 4x4 complex matrix, sorted by (real, imag).

    Delegates to the dense QR eigensolver; every returned eigenvalue is
    verified via |det(M - lambda I)| against the matrix scale.
    """
    M = np.asarray(matrix, dtype=complex)
    if M.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M.real)) or not np.all(np.isfinite(M.imag)):
        raise ValueError("matrix contains non-finite entries")
    try:
        eigs = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(
            f"eigenvalue iteration failed to converge for matrix:\n{M!r}"
        ) from exc

    scale = max(1.0, float(np.linalg.norm(M))) ** 4
    for lam in eigs:
        residual = abs(np.linalg.det(M - lam * np.eye(4)))
        if residual > 1e-8 * scale:
            raise EigensolverError(
                f"eigenvalue {lam!r} has det residual {residual:.3e} "
                f"(tolerance {1e-8 * scale:.3e}) for matrix:\n{M!r}"
            )
    return sort_complex(eigs)


def expm(a):
    """scipy's matrix exponential of ``a``, slice by slice over leading axes."""
    from scipy.linalg import expm as scipy_expm

    return scipy_expm(a)


def schur(a):
    """scipy's complex Schur form ``(T, Z)`` of the square matrix ``a``."""
    from scipy.linalg import schur as scipy_schur

    return scipy_schur(a, output="complex")
