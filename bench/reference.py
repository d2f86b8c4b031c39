"""Fixed reference task that calibrates operation times against machine speed.

    python3 bench/reference.py

Run in a child process of its own before each timed operation and after the
last, the same way the operations run.  It does a fixed mix of the work the quncert CLI does
(interpreter-bound arithmetic, calls and float formatting, small dense numpy
linear algebra and elementwise array work) and uses no quncert code, so a
change to the library cannot change it.  Dividing an operation's time by the
mean of the reference times just before and after it cancels the machine's
speed around the operation, which on a shared host can drift by a third
within minutes.
"""

import math

import numpy as np


def _interpreted(n):
    parts = []
    total = 0.0
    for i in range(n):
        x = math.sin(i * 1e-3) + (i % 7) * 0.5
        total += x * x
        if i % 8 == 0:
            parts.append(f"{total:.17g}")
    return total, len(",".join(parts))


def _dense(n):
    rng = np.random.default_rng(0)
    m = rng.standard_normal((n, 6, 6)) + 1j * rng.standard_normal((n, 6, 6))
    acc = 0.0
    for a in m:
        h = 0.5 * (a + a.conj().T)
        if not np.allclose(h, h.conj().T):
            raise AssertionError("not Hermitian")
        w, v = np.linalg.eigh(h)
        acc += float(np.abs(v @ np.exp(-1j * w)).sum())
    big = rng.standard_normal((24, 24))
    big = big + big.T
    for _ in range(n // 20):
        w, v = np.linalg.eigh(big)
        acc += float(np.abs(np.exp(-1j * np.outer(w, np.linspace(0.0, 1.0, 500)))).sum())
    return acc


if __name__ == "__main__":
    _interpreted(200_000)
    _dense(600)
