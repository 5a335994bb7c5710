"""Qubit state representations and the fixed measurement apparatus.

Conventions: basis index 0 is the excited state (spin up), index 1 the ground
state (spin down), so the recycling jump operator is the raising operator
``SIGMA_PLUS`` with its single nonzero entry at (0, 1).  The measured
dichotomic observable is sigma_y; its +1/-1 eigenprojectors are
``PROJECTOR_PLUS``/``PROJECTOR_MINUS`` and the protocol's initial state is the
+1 eigenstate ``INITIAL_STATE = PROJECTOR_PLUS``.

Density matrices are plain 2x2 complex ndarrays and may carry a trace
different from 1: the unnormalized state is first-class, with normalization
applied only where an observable is read out.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY = np.eye(2, dtype=complex)

#: jump operator |up><down| (recycles ground-state weight into the excited state)
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)

#: sigma_y eigenprojectors, P_+- = |+-y><+-y|
PROJECTOR_PLUS = 0.5 * (IDENTITY + SIGMA_Y)
PROJECTOR_MINUS = 0.5 * (IDENTITY - SIGMA_Y)

#: protocol initial state: the +1 eigenstate of sigma_y
INITIAL_STATE = PROJECTOR_PLUS.copy()


@dataclass(frozen=True)
class ModelParams:
    """Physical dials: coherent scale J, orientation theta, rate gamma, efficiency q.

    The Hamiltonian is ``-(J/2)(sin(theta) sigma_x + cos(theta) sigma_z)``;
    gamma is the dissipation rate and q the fraction of detected jump
    trajectories retained in the conditioned ensemble (q=1: full Lindblad,
    q=0: pure no-jump conditioning).  J sets the time unit 1/J.
    """

    gamma: float
    q: float
    J: float = 1.0
    theta: float = math.pi / 2

    def __post_init__(self):
        if not self.J >= 0:
            raise ValueError(f"J must be >= 0, got {self.J}")
        if not self.gamma >= 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"q must lie in [0, 1], got {self.q}")
        if not 0.0 <= self.theta < 2 * math.pi:
            raise ValueError(f"theta must lie in [0, 2*pi), got {self.theta}")

    @property
    def ratio(self):
        """Dimensionless dissipation ratio gamma / J."""
        return self.gamma / self.J


def hamiltonian(params: ModelParams) -> np.ndarray:
    """H = -(J/2)(sin(theta) sigma_x + cos(theta) sigma_z)."""
    return -(params.J / 2.0) * (
        math.sin(params.theta) * SIGMA_X + math.cos(params.theta) * SIGMA_Z
    )


class BlochState(NamedTuple):
    """Trace r plus unnormalized Bloch components (sx, sy, sz).

    rho = (r/2) I + (sx sigma_x + sy sigma_y + sz sigma_z)/2; positivity
    reads sx^2 + sy^2 + sz^2 <= r^2.
    """

    r: float
    sx: float
    sy: float
    sz: float

    def normalized(self):
        """Normalized Bloch vector (sx, sy, sz)/r."""
        return (self.sx / self.r, self.sy / self.r, self.sz / self.r)


def bloch_decompose(rho) -> BlochState:
    """Map a density matrix, or a stack (..., 2, 2) of them, to (trace,
    unnormalized Bloch vector): the real parts of Tr[rho sigma] from the
    four entries, r = rho00 + rho11, sx = rho01 + rho10,
    sy = i rho01 - i rho10, sz = rho00 - rho11."""
    rho = np.asarray(rho, dtype=complex)
    r00, r01, r10, r11 = (rho[..., i, j] for i in (0, 1) for j in (0, 1))
    return BlochState(r00.real + r11.real, r01.real + r10.real,
                      r10.imag - r01.imag, r00.real - r11.real)


def check_density_matrix(rho, hermiticity_tol=1e-10, positivity_tol=1e-9):
    """Validate Hermiticity, realness of the trace and positivity of rho.

    Raises ValueError on violation; the trace itself is unconstrained
    (unnormalized states pass).
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {rho.shape}")
    herm_defect = float(np.max(np.abs(rho - rho.conj().T)))
    if herm_defect > hermiticity_tol:
        raise ValueError(f"matrix is not Hermitian (defect {herm_defect:.3e})")
    if abs(np.trace(rho).imag) > hermiticity_tol:
        raise ValueError(f"trace is not real: {np.trace(rho)!r}")
    eigs = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    if eigs.min() < -positivity_tol:
        raise ValueError(f"matrix is not positive (min eigenvalue {eigs.min():.3e})")
    return rho
