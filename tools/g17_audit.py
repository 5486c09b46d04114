"""Audit of the CSV number formatter: ``ottopair._g17.write_cells`` against
Python's ``'%.17g' %`` on seeded doubles.

    python tools/g17_audit.py                      # 10^7 drawn values and more
    python tools/g17_audit.py --count 1000000 --seed 3

The values come in families (`families`): a uniform mantissa in every
binade from 2^-1074 to 2^1023 with both signs, every power of ten from
1e-323 to 1e308 with both of its float neighbours, integers below 2^62,
zeros and subnormal bit patterns, the dyadic values 1 + m/2^20 (whose
exact 18-digit ties the formatter must hand to ``%``), and raw bit
patterns; ``--count`` sets how many are drawn (the fixed families come on
top).  One line per family gives its size, its mismatches and the share
of its values that took the formatter's ``%`` fallback; each mismatch is
printed after it.  Exit status 1 on any mismatch.  Standard library and
numpy only.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

_CHUNK = 2**16
_BINADES = range(-1074, 1024)


def families(rng: np.random.Generator, count: int) -> dict[str, np.ndarray]:
    """Finite float64 test values by family; `count` of them drawn."""
    per = max(1, count // (4 * len(_BINADES)))
    mantissa = 1.0 + rng.random((len(_BINADES), per))
    binades = np.ldexp(mantissa, np.array(_BINADES)[:, None]).ravel()
    tens = np.array([float(f"1e{p}") for p in range(-323, 309)])
    ints = rng.integers(0, 2 ** rng.integers(1, 63, count // 8, dtype=np.int64))
    subnormal = rng.integers(1, 2**52, count // 8, dtype=np.int64).view(np.float64)
    raw = rng.integers(0, 2**64, count // 4, dtype=np.uint64).view(np.float64)
    return {
        "binades": np.concatenate([binades, -binades]),
        "powers of ten": np.concatenate([tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf)]),
        "integers": ints.astype(np.float64),
        "zeros, subnormals": np.concatenate([[0.0, -0.0], subnormal, -subnormal]),
        "dyadic 1 + m/2^20": 1.0 + np.arange(2**20) / 2**20,
        "raw bits": raw[np.isfinite(raw)],
    }


def audit(x: np.ndarray) -> tuple[list[tuple[float, str, str]], int]:
    """The values of `x` whose formatted cell differs from ``'%.17g' %``,
    as (value, cell, expected), and the count that took the fallback."""
    from ottopair import _g17

    bad, fallback = [], 0
    for start in range(0, len(x), _CHUNK):
        chunk = x[start : start + _CHUNK]
        fallback += int(np.count_nonzero(_g17.classify(chunk)[0] < 0))
        cells = np.zeros((len(chunk), _g17.WIDTH + 1), dtype=np.uint8)
        cells[:, -1] = ord("\n")
        _g17.write_cells(chunk, cells, np.arange(len(chunk)))
        got = cells[cells != 0].tobytes().decode("ascii").split("\n")[:-1]
        want = ["%.17g" % v for v in chunk.tolist()]
        if got != want:
            bad += [(v, g, w) for v, g, w in zip(chunk.tolist(), got, want) if g != w]
    return bad, fallback


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=10**7, help="values drawn (default 10^7)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--root", type=Path, default=Path(__file__).resolve().parent.parent,
        help="checkout whose src/ is audited (default: this one)",
    )
    args = parser.parse_args()
    sys.path.insert(0, str(args.root.resolve() / "src"))
    start = time.perf_counter()
    total = mismatched = 0
    for name, x in families(np.random.default_rng(args.seed), args.count).items():
        bad, fallback = audit(x)
        total, mismatched = total + len(x), mismatched + len(bad)
        print(f"{name}: {len(x)} values, {len(bad)} mismatches, "
              f"fallback {fallback / len(x):.4%}", flush=True)
        for v, got, want in bad:
            print(f"  {v!r}: {got!r}, % gives {want!r}")
    print(f"total: {total} values, {mismatched} mismatches, "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
