"""Calibration kernel: a fixed computation that does not use partkf.

On a shared host the speed of the same code shifts by up to 1.8x, both from
one tenth of a second to the next and for tens of seconds at a time.  A run
therefore interleaves this kernel with the timed operations, and reports each
operation's time scaled by ``NOMINAL_S`` over the kernel's mean time in the
same run: the time the operation would take on a host where the kernel takes
``NOMINAL_S``.  A change to the package moves the operation's time and not the
kernel's, so it shows in full; a shift of the host moves both, and cancels.

The kernel is made of the same kinds of work as the package's: a small
Kalman filter in numpy and scipy (matrix products, Cholesky solves, spectral
norms, symmetric eigenvalues), Python lists and dicts, and a JSON dump.
"""

from __future__ import annotations

import json

import numpy as np
from scipy.linalg import cho_factor, cho_solve

#: Mean time of one :func:`kernel` call on the reference host (2 vCPUs of a
#: shared x86-64 host, one BLAS thread), in seconds.
NOMINAL_S = 0.1

_N, _M, _STEPS = 12, 4, 600
_rng = np.random.default_rng(20240410)
_A = _rng.standard_normal((_N, _N))
_A *= 0.9 / np.max(np.abs(np.linalg.eigvals(_A)))
_C = _rng.standard_normal((_M, _N))
_Q = np.eye(_N) * 0.01
_R = np.eye(_M) * 0.1
_YS = _rng.standard_normal((_STEPS, _M))


def kernel() -> int:
    """One fixed unit of work; returns the length of its JSON output."""
    x = np.zeros(_N)
    P = np.eye(_N)
    rows = []
    for k in range(_STEPS):
        x = _A @ x
        P = _A @ P @ _A.T + _Q
        S = _C @ P @ _C.T + _R
        L = cho_solve(cho_factor(S), _C @ P).T
        x = x + L @ (_YS[k] - _C @ x)
        P = P - L @ S @ L.T
        P = 0.5 * (P + P.T)
        rows.append({"k": k, "x": x.tolist(), "gain": float(np.linalg.norm(L, 2)),
                     "eig": float(np.linalg.eigvalsh(P)[0])})
    return len(json.dumps(rows))
