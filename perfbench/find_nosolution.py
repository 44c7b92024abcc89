"""Search seeded sparse random systems for certified no-solution inputs.

The no-solution inputs under ``perfbench/data`` came from

    python3 perfbench/find_nosolution.py --seed 7 --draws 120

Draw k uses ``random.Random("nosolution:<seed>:<k>")``: n in 7..10, l in
3..4, m in 2..l-1 (nonsquare), density 0.25, A entries in [-2, 2] and B, C
entries in [-1, 1].  A draw is kept when it meets the solver's preconditions
(checked by ``oracle.system_problems``), ``morgan solve`` exits 2 under
solver seed 1729, and verdict and configuration count repeat under solver
seeds 1, 2 and 3.  Found systems are written as ``nosol_<seed>_<k>.json``.

Seed 7 kept draws 21, 26, 38, 66, 70, 112 and 119 (24 to 72 configurations,
0.9 to 13 s each on a 2-core x86-64 machine with Python 3.11).  The
full-grid workload uses the three fastest, 112, 66 and 70, so that one
round stays near half a minute.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from morgan.cli import main as morgan_main  # noqa: E402

from systems import valid_draw  # noqa: E402


def solve(path, seed):
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = morgan_main(["solve", path, "--json", "--seed", str(seed)])
    return rc, time.perf_counter() - t0, json.loads(buf.getvalue())["audit"]["searched"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--draws", type=int, default=120)
    ap.add_argument("--out", default=os.path.join(HERE, "data"))
    args = ap.parse_args()
    for k in range(args.draws):
        rng = random.Random(f"nosolution:{args.seed}:{k}")
        n = rng.randint(7, 10)
        l = rng.randint(3, 4)
        m = rng.randint(2, l - 1)
        system = valid_draw(rng, n, l, m, 0.25, 2, 1)
        path = os.path.join(args.out, f"nosol_{args.seed}_{k}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(system, fh)
            fh.write("\n")
        rc, dt, searched = solve(path, 1729)
        keep = rc == 2 and all(solve(path, s)[::2] == (2, searched) for s in (1, 2, 3))
        print(f"draw {k}: n={n} l={l} m={m} exit={rc} searched={searched} "
              f"{dt:.2f}s{' KEPT' if keep else ''}", flush=True)
        if not keep:
            os.remove(path)


if __name__ == "__main__":
    main()
