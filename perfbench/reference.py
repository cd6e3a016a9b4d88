"""A fixed pure-Python computation that gauges how fast the host runs
interpreter code at the moment.

    python3 perfbench/reference.py

Prints its own run time in seconds.  It imports nothing from chieflie, so a
change to the library cannot change it.  run.py starts it in a fresh
interpreter before and after every pass and scales the run's timings by it;
README.md says why.  The work is row reduction of fixed 24 x 24 matrices
over GF(5), the same kind of work as chieflie's `rref_rows`.
"""

from __future__ import annotations

import time

P = 5
N = 24
REPEATS = 1700


def rref(m: list[list[int]]) -> int:
    """Reduce m in place over GF(P); return its rank."""
    r = 0
    for c in range(N):
        pivot = next((k for k in range(r, N) if m[k][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = pow(m[r][c], P - 2, P)
        m[r] = [x * inv % P for x in m[r]]
        for k in range(N):
            if k != r and m[k][c]:
                f = m[k][c]
                m[k] = [(a - f * b) % P for a, b in zip(m[k], m[r])]
        r += 1
    return r


def main() -> None:
    start = time.perf_counter()
    for rep in range(REPEATS):
        rref([[(i * 7 + j * 3 + i * j + rep) % P for j in range(N)]
              for i in range(N)])
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
