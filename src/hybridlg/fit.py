"""Universal tanh-in-log-q fit of the K3 landscape and residual reports.

Reports read sweep rows ``(gamma, q, k3_max, t_star, error)``, the rows that
the ``sweep`` command writes and :meth:`hybridlg.lgi.SweepResult.rows` returns.

The maximal three-time parameter is modeled as

    K3_max(gamma, q) = A(gamma) tanh(B(gamma) log q + C(gamma)) + D(gamma)

with A, B, C, D each a 20th-order polynomial in gamma whose published
coefficients are embedded verbatim below.  The base of the logarithm is
selectable; the natural log is the package default because it empirically
minimizes the residual against freshly computed landscapes (see
:func:`select_log_base`, which reruns that experiment).

The published coefficients carry five significant figures.  On the low branch
of the fit domain (gamma < 1) the polynomial sums stay O(1) and the fit is
accurate to a few 1e-2; past gamma ~ 2 the gamma^n terms reach 1e8..1e14, so
five-digit rounding injects noise orders of magnitude above the O(1) signal
and evaluations there are dominated by quantization error of the published
table rather than by the fit's functional form.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfDomainError

# Published coefficient table, indexed by polynomial order n = 0..20.
TABLE_A = (
    +6.2848e-1, -4.5638, +2.8757e1, -8.5770e1, +1.2011e2, -3.5672e1,
    -5.3469e1, -1.8958e1, +3.3930e1, +6.0866e1, +2.9117e1, -3.4865e1,
    -7.6905e1, -5.8861e1, +1.1570e1, +7.9796e1, +9.6074e1, +2.7423e1,
    -9.1780e1, -1.3767e2, +1.1125e2,
)
TABLE_B = (
    -4.9415e-1, +1.9172e-1, -2.1947, -5.1790, +5.0647e1, -6.9839e1,
    -8.1141e1, +1.5617e2, +5.8249e1, -4.2615e1, -5.0256e1, -6.9025e1,
    -9.0190e1, -6.9937e1, +1.8094e2, +2.6833e2, -3.1101e1, -8.2974e1,
    -1.5270e2, -1.8439e2, +2.1707e2,
)
TABLE_C = (
    +1.7521, -2.9259e1, +1.9281e2, -8.1818e2, +1.8487e3, -1.6438e3,
    -9.1085e2, +1.8993e3, +6.5620e2, -6.3958e2, -8.8019e2, -7.0012e2,
    -1.3577e2, +9.7489e2, +9.5807e2, +2.4773e2, -4.4073e2, -7.7988e2,
    -3.6510e2, +3.9330e2, +1.6410e2,
)
TABLE_D = (
    +8.7271e-1, +4.8657, -2.7083e1, +7.6357e1, -7.9859e1, -4.6756e1,
    +1.2943e2, +2.6552e1, -9.2305e1, -6.9517e1, +1.6402e1, +7.2005e1,
    +4.8539e1, +2.0108, -2.0942e1, -5.7441e1, -4.8891e1, +4.1577e1,
    -1.7906e1, +1.1761e2, -7.3519e1,
)

#: default logarithm base for the tanh argument ("e" or "10")
DEFAULT_LOG_BASE = "e"

#: gamma range the polynomials were fitted on; [1, 2] is excluded
DOMAIN_LOW = (0.05, 1.0)    # half-open: 0.05 <= gamma < 1
DOMAIN_HIGH = (2.0, 5.0)    # half-open: 2 < gamma <= 5

#: residual thresholds separating the accuracy regions in reports
REGION_THRESHOLDS = (1e-2, 1e-1)


def in_fit_domain(gamma: float) -> bool:
    return (DOMAIN_LOW[0] <= gamma < DOMAIN_LOW[1]) or (
        DOMAIN_HIGH[0] < gamma <= DOMAIN_HIGH[1]
    )


@dataclass(frozen=True)
class FitCoefficients:
    """Four order-20 polynomial coefficient arrays plus the log base."""

    a: tuple
    b: tuple
    c: tuple
    d: tuple
    log_base: str = DEFAULT_LOG_BASE

    def __post_init__(self):
        for name, coeffs in (("a", self.a), ("b", self.b), ("c", self.c),
                             ("d", self.d)):
            if len(coeffs) != 21:
                raise ValueError(
                    f"coefficient array {name} must have 21 entries, "
                    f"got {len(coeffs)}"
                )
        if self.log_base not in ("e", "10"):
            raise ValueError(f"log_base must be 'e' or '10', got {self.log_base!r}")

    @classmethod
    def published(cls, log_base=DEFAULT_LOG_BASE) -> "FitCoefficients":
        return cls(a=TABLE_A, b=TABLE_B, c=TABLE_C, d=TABLE_D,
                   log_base=log_base)

    def log(self, q: float) -> float:
        return math.log(q) if self.log_base == "e" else math.log10(q)


def eval_polynomials(gamma: float, coeffs: FitCoefficients | None = None,
                     allow_extrapolation=False):
    """(A, B, C, D) at gamma via Horner evaluation of the four polynomials.

    An array of gamma takes the same IEEE operations elementwise, one Horner
    pass for all of them (give ``allow_extrapolation`` then: the domain
    check reads one gamma).
    """
    if coeffs is None:
        coeffs = FitCoefficients.published()
    if not allow_extrapolation and not in_fit_domain(gamma):
        raise OutOfDomainError(
            f"gamma = {gamma} is outside the fitted range "
            f"[{DOMAIN_LOW[0]}, {DOMAIN_LOW[1]}) u ({DOMAIN_HIGH[0]}, "
            f"{DOMAIN_HIGH[1]}]; pass allow_extrapolation to force evaluation"
        )
    values = []
    for table in (coeffs.a, coeffs.b, coeffs.c, coeffs.d):
        value = 0.0
        for c in reversed(table):
            value = value * gamma + c
        values.append(value)
    return tuple(values)


@dataclass(frozen=True)
class ResidualRow:
    gamma: float
    q: float
    k3_computed: float
    k3_fit: float
    residual: float
    region: str   # "1" | "2" | "3" | "excluded" | "masked"


@dataclass(frozen=True)
class ResidualReport:
    rows: tuple
    log_base: str

    def included(self):
        return [r for r in self.rows if r.region in ("1", "2", "3")]

    @property
    def max_residual(self) -> float:
        rows = self.included()
        return max(r.residual for r in rows) if rows else math.nan

    @property
    def median_residual(self) -> float:
        rows = self.included()
        return float(np.median([r.residual for r in rows])) if rows else math.nan


def _classify(residual: float) -> str:
    low, high = REGION_THRESHOLDS
    if residual < low:
        return "1"
    if residual <= high:
        return "2"
    return "3"


def residual_report(rows, coeffs: FitCoefficients | None = None,
                    allow_extrapolation=False) -> ResidualReport:
    """Per-row |fit - computed| table with accuracy-region classification.

    ``rows`` holds sweep rows ``(gamma, q, k3_max, t_star, error)``; the
    report has one row per sweep row, in the same order.  Rows with gamma
    outside the fit domain (:func:`in_fit_domain`) are marked "excluded" and
    do not enter the summary statistics unless ``allow_extrapolation``
    forces their evaluation; rows with an error or a NaN value are carried
    through as "masked".
    """
    if coeffs is None:
        coeffs = FitCoefficients.published()
    rows = list(rows)
    regions = []   # None: a row to fit
    for gamma, q, k3_computed, _, message in rows:
        if not allow_extrapolation and not in_fit_domain(gamma):
            regions.append("excluded")
        elif message or math.isnan(k3_computed):
            regions.append("masked")
        elif not 0.0 <= q <= 1.0:
            raise ValueError(f"q must lie in [0, 1], got {q}")
        else:
            regions.append(None)
    gammas = np.array([row[0] for row, region in zip(rows, regions)
                       if region is None], dtype=float)
    polynomials = zip(*(values.tolist() for values in eval_polynomials(
        gammas, coeffs, allow_extrapolation=True)))
    report = []
    for (gamma, q, k3_computed, _, _), region in zip(rows, regions):
        fitted = residual = math.nan
        if region is None:
            # A tanh(B log q + C) + D; the q -> 0 limit of the tanh argument
            # is -sign(B) * inf, so q = 0 gives -sign(B) * A + D
            A, B, C, D = next(polynomials)
            fitted = (-math.copysign(1.0, B) * A + D if q == 0.0
                      else A * math.tanh(B * coeffs.log(q) + C) + D)
            residual = abs(fitted - k3_computed)
            region = _classify(residual)
        report.append(ResidualRow(gamma, q, k3_computed, fitted, residual,
                                  region))
    return ResidualReport(rows=tuple(report), log_base=coeffs.log_base)


def select_log_base(rows):
    """Median residual for both log bases; smaller wins.

    ``rows`` are sweep rows as for :func:`residual_report`, in a sequence
    that can be read once per base.  Returns (winning base, {base: median
    residual}, the winner's :func:`residual_report` on the published
    coefficients of its base, without extrapolation).  This is the
    experiment behind the package default of the natural logarithm.  Bases
    are compared on the gamma < 1 rows: past gamma ~ 2 both bases drown in
    the quantization noise of the published coefficients and the comparison
    carries no signal.  Rows without a low-branch cell fall back to every
    included cell.
    """
    medians, reports = {}, {}
    for base in ("e", "10"):
        reports[base] = report = residual_report(
            rows, FitCoefficients.published(base))
        low = tuple(r for r in report.included() if r.gamma < DOMAIN_LOW[1])
        if low:
            report = ResidualReport(rows=low, log_base=base)
        medians[base] = report.median_residual
    winner = min(medians, key=lambda base: medians[base])
    return winner, medians, reports[winner]
