"""sha256 sweep of the command-line output, one digest per input.

    PYTHONPATH=src python tests/output_sweep.py --seeds 1729 1748 --workload-seed 0

For every solver seed in the inclusive range, each input is solved with
``morgan solve SYSTEM --json --out SOL --seed S`` (plus its flags), and the
written file is checked with ``morgan verify`` (text and ``--json``) and
``morgan fixed-poles`` (text and ``--json``).  The exit code, stdout and
stderr of every command feed one sha256 per input, printed as
``<digest>  <input>``.  Two checkouts print the same lines exactly when the
solver's output bytes agree on these inputs and seeds.  Every swept input
is well formed, so a command that prints ``error:`` on stderr (an exception
that ``main`` caught) is listed on stderr and the sweep exits 1.

Inputs: Examples 1 and 2, each first hit, ``--all`` and ``--dz-target
s^2+3s+2``; the three certified no-solution inputs ``nosol_7_*``; the
random-dense systems of the benchmark's workload seed.  morgan is imported
from the ``src`` next to this file.  Not collected by pytest.

``output_sweep_1729.txt`` next to this file holds the lines of ``--seeds
1729 1729`` at workload seed 0, which CI compares byte for byte.  A change
that alters the output on purpose regenerates it:

    PYTHONPATH=src python tests/output_sweep.py > tests/output_sweep_1729.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "perfbench" / "data"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from morgan.cli import main  # noqa: E402
from systems import dense_systems  # noqa: E402

FLAGS = {"first": [], "all": ["--all"], "dz": ["--dz-target", "s^2+3s+2"]}
NOSOLUTION = ("nosol_7_66", "nosol_7_70", "nosol_7_112")


def run(argv, tmp, errors):
    """Exit code, stdout and stderr of one in-process `morgan` command, with
    the checkout and the temporary directory named alike in every checkout.
    A command that reports an error (main catches the exception and prints
    "error: ..." on stderr) is appended to errors."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    if "error:" in err.getvalue():
        errors.append(f"{' '.join(argv)}: {err.getvalue().strip()}")
    text = f"{argv[0]} {rc}\n{out.getvalue()}\n{err.getvalue()}\n"
    return text.replace(str(tmp), "<tmp>").replace(str(ROOT), "<root>").encode()


def inputs(workload_seed, tmp):
    """(name, system path, solve flags) of every swept input."""
    for example in ("example1", "example2"):
        for kind, flags in FLAGS.items():
            yield f"{example}-{kind}", DATA / f"{example}.json", flags
    for name in NOSOLUTION:
        yield name, DATA / f"{name}.json", []
    for i, system in enumerate(dense_systems(workload_seed)):
        path = tmp / f"dense-{workload_seed}-{i}.json"
        path.write_text(json.dumps(system))
        yield path.stem, path, []


def main_sweep(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs=2, default=(1729, 1729), metavar=("FIRST", "LAST"))
    ap.add_argument("--workload-seed", type=int, default=0)
    args = ap.parse_args(argv)
    errors = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        sol = tmp / "solution.json"
        for name, system, flags in inputs(args.workload_seed, tmp):
            digest = hashlib.sha256()
            for seed in range(args.seeds[0], args.seeds[1] + 1):
                sol.unlink(missing_ok=True)
                digest.update(f"seed {seed}\n".encode())
                digest.update(run(["solve", str(system), "--json", "--out", str(sol),
                                   "--seed", str(seed)] + flags, tmp, errors))
                for command in ("verify", "fixed-poles"):
                    for extra in ([], ["--json"]):
                        digest.update(run([command, str(system), str(sol)] + extra, tmp, errors))
            print(f"{digest.hexdigest()}  {name}", flush=True)
    # every swept input is well formed: an error is a crash that main caught
    for line in errors:
        print(line, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main_sweep())
