"""Temporal-correlation toolkit for a dissipative qubit whose quantum-jump
record is only partially retained.

A detector-efficiency dial q in [0, 1] interpolates the generator between
trace-preserving dissipative dynamics (q = 1) and pure no-jump conditioning
(q = 0).  The package computes the three-time Leggett-Garg parameter under
the sequential sigma_y protocol, landscapes of its maximum over the
(dissipation, efficiency) plane, the generator's spectrum with its
eigenvalue-coalescence locus, closed-form reduced Bloch solutions, the
statistical macrorealism (signaling/arrow-of-time) diagnostics, and the
published tanh-in-log-efficiency landscape fit.
"""

__version__ = "0.1.0"
