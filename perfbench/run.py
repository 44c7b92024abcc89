"""Benchmark of the morgan solver, driven from outside through ``morgan.cli.main``.

    python3 perfbench/run.py --workload examples --seed 0 --seconds 20 --trace 0

Each run is one process that imports ``morgan`` from ``src/`` of the
checkout, with one thread and the solver's default ``--jobs 1``.  A closed
loop runs rounds of operations until ``--seconds`` have passed (at least one
round).  An operation is ``morgan solve SYSTEM --json --out SOL --seed S``
(plus the workload's flags), and each returned solution is then checked by
``morgan verify SYSTEM SOL --json``.  The workload seed drives the input
generator and the solver seeds; the program only sees the JSON files.

Workloads:
  examples      the paper's two worked systems as a user runs them: Example 1,
                Example 2 and Example 2 with --dz-target "s^2+3s+2", first hit.
                Search-dominated, stops at the winner; only workload reaching
                zeros.assign_zeros.
  full-grid     sweeps that decide every configuration: Example 2 --all and
                certified no-solution inputs (perfbench/data/nosol_*.json).
                Configuration throughput of the search and parameter algebra.
  random-dense  18 dense random controllable systems, n 10-12, l 2-4, m 2..l,
                winner at the first configurations.  Bypasses the search; time
                goes to the pencil form, resolvent, elimination and
                composition.

Every time is a wall time corrected for the drift of the machine's speed
by ``speed.py``: seconds at a fixed speed of a reference computation.  The
uncorrected wall times are printed on a summary line.

Every returned solution is checked by the exact oracle in ``oracle.py``.
The verdict of each input is checked at every seed; winner, configuration
count and solution digest are compared with ``pins.json`` at the pinned
solver seed, and a changed digest is listed, not failed.  With
``--trace 1`` the run first does untraced rounds for half of ``--seconds``,
then repeats the same rounds with the layer wrappers of ``layers.py``
installed, reports per-layer figures per round, and writes the spans to
``perfbench/out/``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs the three workloads one after another.  The
baseline of the seed commit is in ``BASELINE.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import oracle
import speed
import systems
from layers import LAYERS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
DATA = os.path.join(HERE, "data")
OUT = os.path.join(HERE, "out")
PINS = os.path.join(HERE, "pins.json")

WORKLOADS = ("examples", "full-grid", "random-dense")
DEFAULT_SOLVER_SEED = 1729  # morgan's default --seed; used by round 0 of seed 0
SETUP_REPEATS = 5
NOSOLUTION = ("nosol_7_112", "nosol_7_66", "nosol_7_70")
TAIL_PERCENTILES = (99, 95, 90, 75, 50)


def solver_seed(seed, rnd):
    return DEFAULT_SOLVER_SEED + 1000 * seed + rnd


class Case:
    """One solve of one input, the verdict every seed must give, and how many
    times a returned solution is verified."""

    def __init__(self, name, system, flags=(), expect="solved", verifies=1):
        self.name, self.system, self.flags = name, system, list(flags)
        self.expect, self.verifies = expect, verifies


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def load_inputs(names):
    """Committed input systems, each checked against the solver's preconditions."""
    inputs = {}
    for name in names:
        inputs[name] = read_json(os.path.join(DATA, name + ".json"))
        problems = oracle.system_problems(inputs[name])
        if problems:
            raise RuntimeError(f"input {name}: " + "; ".join(problems))
    return inputs


def plan(workload, seed):
    """Input systems (name -> dict) and the cases of one round."""
    if workload == "examples":
        inputs = load_inputs(("example1", "example2"))
        return inputs, [Case("example1", "example1"), Case("example2", "example2"),
                        Case("example2-dz", "example2", ["--dz-target", "s^2+3s+2"])]
    if workload == "full-grid":
        inputs = load_inputs(("example2",) + NOSOLUTION)
        # one solution per round: verifying it 40 times gives verify_s.p50 a median
        return inputs, ([Case("example2-all", "example2", ["--all"], verifies=40)]
                        + [Case(k, k, expect="no_solution") for k in NOSOLUTION])
    drawn = systems.dense_systems(seed)
    names = [f"dense-{seed}-{i}" for i in range(len(drawn))]
    inputs = dict(zip(names, drawn))
    return inputs, [Case(name, name) for name in names]


def setup(paths, sampler):
    """Import morgan and load every input, SETUP_REPEATS times; the spans."""
    spans = []
    for _ in range(SETUP_REPEATS):
        for name in [k for k in sys.modules if k == "morgan" or k.startswith("morgan.")]:
            del sys.modules[name]
        mark = sampler.begin()
        cli = importlib.import_module("morgan.cli")
        fileio = importlib.import_module("morgan.fileio")
        for path in paths:
            fileio.load_system(path)
        spans.append(sampler.end(mark))
    if os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__))) != SRC:
        raise RuntimeError(f"morgan was imported from {cli.__file__}, not from {SRC}")
    return cli, spans


class Run:
    """Timings, counts and check results of one benchmark run.  Timings are
    spans of ``speed.Sampler``, turned into seconds once the run is over."""

    def __init__(self, cli, sampler, inputs, paths, workdir, pins, write_pins):
        self.cli = cli  # main is looked up per call, so installed wrappers see it
        self.sampler = sampler
        self.inputs, self.paths, self.workdir = inputs, paths, workdir
        self.pins, self.write_pins = pins, write_pins
        self.attempted = self.failed = 0
        self.wrong = 0  # answers the oracle or the pins reject
        self.problems = []
        self.digest_changed = set()
        self.negative_control = None  # True once a perturbed solution was rejected
        self.reset()

    def reset(self):
        self.solve_s, self.verify_s, self.round_s = [], [], []
        self.searched = self.solved_configs = 0

    def call(self, argv):
        out = io.StringIO()
        mark = self.sampler.begin()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(argv)
        return code, self.sampler.end(mark), out.getvalue()

    def op(self, kind, name, argv, check):
        """Run one timed operation; ``check`` lists what is wrong with it."""
        self.attempted += 1
        took = None
        try:
            code, took, text = self.call(argv)
            problems = check(code, text)
        except Exception:  # a crash, or output that cannot be read, fails the operation
            problems = ["raised:\n" + traceback.format_exc()]
        if problems:
            self.failed += 1
            self.problems += [f"{kind} {name}: {p}" for p in problems]
        return took

    def round(self, cases, seed):
        spans = []
        for case in cases:
            path = self.paths[case.system]
            sol = os.path.join(self.workdir, case.name + ".sol.json")
            argv = ["solve", path, "--json", "--out", sol, "--seed", str(seed)] + case.flags
            if os.path.exists(sol):
                os.remove(sol)
            result = {}
            took = self.op("solve", case.name, argv,
                           lambda code, text: self.check_solve(case, seed, sol, code, result))
            if took is None:
                continue
            spans.append(took)
            self.solve_s.append(took)
            if result.get("verdict") != "solved":
                continue
            for _ in range(case.verifies):
                took = self.op("verify", case.name, ["verify", path, sol, "--json"], check_verify)
                if took is not None:
                    spans.append(took)
                    self.verify_s.append(took)
        self.round_s.append(spans)

    def check_solve(self, case, seed, sol, code, result):
        with open(sol, "rb") as fh:
            raw = fh.read()
        payload = json.loads(raw)
        verdict = "no_solution" if payload.get("no_solution") else "solved"
        audit = payload["audit"]
        winner = None
        if verdict == "solved":
            winner = [payload["ci_tuple"], payload["row_config"]["positions"]]
        result["verdict"] = verdict
        self.searched += audit["searched"]
        self.solved_configs += sum(c["status"] == "solved" for c in audit["configurations"])
        problems, wrong = [], []
        if code != (0 if verdict == "solved" else 2):
            problems.append(f"exit code {code} with verdict {verdict}")
        if verdict != case.expect:
            wrong.append(f"verdict {verdict}, expected {case.expect}")
        # winner and count are pinned for the pinned solver seed only: a
        # randomized rejection may move the first feasible configuration
        seen = {"verdict": verdict, "winner": winner, "searched": audit["searched"]}
        digest = hashlib.sha256(raw).hexdigest()
        if self.write_pins and case.name not in self.pins:
            self.pins[case.name] = dict(seen, solver_seed=seed, sha256=digest)
        pin = self.pins.get(case.name)
        if pin is not None and pin["solver_seed"] == seed:
            wrong += [f"{k} {seen[k]} != pinned {pin[k]}" for k in seen if seen[k] != pin[k]]
            if digest != pin["sha256"]:
                self.digest_changed.add(case.name)
        if verdict == "solved":
            system = self.inputs[case.system]
            wrong += ["oracle: " + p for p in oracle.solution_problems(system, payload)]
            if self.negative_control is None:
                self.negative_control = bool(
                    oracle.solution_problems(system, oracle.perturbed(payload)))
        self.wrong += len(wrong)
        return problems + wrong

    def rounds(self, cases, seed, deadline, count=None):
        """Rounds until ``deadline`` (at least one), or exactly ``count``."""
        rnd = 0
        while (rnd < count) if count is not None else (rnd == 0 or perf_counter() < deadline):
            self.round(cases, solver_seed(seed, rnd))
            rnd += 1
        return rnd


def check_verify(code, text):
    if code == 0:
        return []
    try:
        return [f"exit code {code}: " + "; ".join(json.loads(text)["failures"])]
    except (ValueError, KeyError):
        return [f"exit code {code}"]


def tail(values):
    """(percentile, value) of the highest percentile with >= 10 samples above it."""
    for p in TAIL_PERCENTILES:
        if len(values) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return None


def round_wall(round_spans, seconds):
    """Median over rounds of the seconds of a round's operations."""
    return statistics.median(sum(map(seconds, spans)) for spans in round_spans)


def end_to_end(run, setup_spans, seconds):
    """The result-line metrics, with ``seconds`` turning a span into seconds."""
    solve_s = [seconds(s) for s in run.solve_s]
    return {
        "wall_s": (round_wall(run.round_s, seconds), "s"),
        "solve_s.p50": (statistics.median(solve_s), "s"),
        "verify_s.p50": (statistics.median(map(seconds, run.verify_s)), "s"),
        "configs_per_s": (run.searched / sum(solve_s), "1/s"),
        "setup_s": (statistics.median(map(seconds, setup_spans)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def wall(span):
    return span[2]


def per_layer(tracer, run, rounds, untraced_wall, traced_wall, speed_factor):
    """Per-round layer figures; layer times are multiplied by ``speed_factor``,
    the traced rounds' corrected over uncorrected time."""
    out = {}
    for layer in LAYERS:
        out[layer + ".calls"] = (tracer.calls[layer] / rounds, "count")
        out[layer + ".self_s"] = (tracer.self_s[layer] * speed_factor / rounds, "s")
        out[layer + ".total_s"] = (tracer.total_s[layer] * speed_factor / rounds, "s")
    counts = tracer.counts
    searches = tracer.calls["squaring.decouplability_search"]
    candidates = counts["squaring.search.candidates"]
    ranks = tracer.calls["paramalg.generic_rank"]
    out.update({
        "squaring.search.candidates": (candidates / rounds, "count"),
        "squaring.search.s_per_candidate": (
            tracer.total_s["squaring.decouplability_search"] * speed_factor / candidates
            if candidates else 0.0, "s"),
        "squaring.search.success_ratio": (
            counts["squaring.search.successes"] / searches if searches else 0.0, "ratio"),
        "paramalg.generic_rank.full_ratio": (
            counts["paramalg.generic_rank.full"] / ranks if ranks else 0.0, "ratio"),
        "decouple.feasible_ratio": (run.solved_configs / run.searched, "ratio"),
        "trace.rounds": (rounds, "count"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
    })
    return out


def bench(args):
    pins_all = read_json(PINS) if os.path.exists(PINS) else {}
    pins = pins_all.get(args.workload, {})
    if args.write_pins:
        if args.seed != 0:
            raise SystemExit("--write-pins needs --seed 0")
        pins = {}
    workdir = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    sampler = speed.Sampler()
    sampler.start()
    try:
        inputs, cases = plan(args.workload, args.seed)
        paths = {}
        for name, system in inputs.items():
            paths[name] = os.path.join(workdir, name + ".json")
            with open(paths[name], "w", encoding="utf-8") as fh:
                json.dump(system, fh)
        cli, setup_spans = setup(list(paths.values()), sampler)
        run = Run(cli, sampler, inputs, paths, workdir, pins, args.write_pins)
        start = perf_counter()
        if args.trace:
            rounds = run.rounds(cases, args.seed, start + args.seconds / 2)
            untraced = run.round_s
            run.reset()
            tracer = Tracer(sampler.clock)
            tracer.install()
            run.rounds(cases, args.seed, None, count=rounds)
        else:
            rounds = run.rounds(cases, args.seed, start + args.seconds)
    finally:
        sampler.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        # the overhead compares rounds at the reference speed: the machine's
        # speed may differ between the two halves of the run
        traced = [span for spans in run.round_s for span in spans]
        speed_factor = sum(map(sampler.scale, traced)) / sum(map(wall, traced))
        metrics = per_layer(tracer, run, rounds, round_wall(untraced, sampler.scale),
                            round_wall(run.round_s, sampler.scale), speed_factor)
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl.gz"))
    else:
        metrics = end_to_end(run, setup_spans, sampler.scale)
        uncorrected = end_to_end(run, setup_spans, wall)
    if args.write_pins:
        pins_all[args.workload] = run.pins
        with open(PINS, "w", encoding="utf-8") as fh:
            json.dump(pins_all, fh, indent=1, sort_keys=True)
            fh.write("\n")

    # correct: every answer passed the oracle and the pins, and the oracle
    # rejected the perturbed solution; failed also counts crashes and wrong
    # exit codes, a verify rejecting a returned file among them
    correct = run.wrong == 0 and run.negative_control is not False
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {rounds} rounds, "
          f"{len(run.solve_s)} solves, {len(run.verify_s)} verifies")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    if not args.trace:
        print("  uncorrected wall time: " + ", ".join(
            f"{k} = {v:.6g} {u}" for k, (v, u) in uncorrected.items() if k != "peak_rss_mb"))
    print(f"  machine speed: reference median {statistics.median(sampler.took):.6g} s "
          f"(REF_S {speed.REF_S} s), {len(sampler.took)} samples")
    found = tail([sampler.scale(s) for s in run.solve_s])
    if found:
        print(f"  solve_s.tail = {found[1]:.6g} s (p{found[0]} of {len(run.solve_s)} solves)")
    else:
        print(f"  solve_s.tail: no percentile has 10 of {len(run.solve_s)} solves above it")
    print(f"  fail_rate = {run.failed}/{run.attempted} = {run.failed / run.attempted:.6g} ratio")
    print("  oracle negative control: " + {True: "rejected (good)", False: "ACCEPTED",
                                           None: "not run (no solution returned)"}[run.negative_control])
    if run.digest_changed:
        print("  solution digest changed: " + ", ".join(sorted(run.digest_changed)))
    for problem in run.problems:
        print("  FAILED " + problem)
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def main():
    ap = argparse.ArgumentParser(description="morgan solver benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-pins", action="store_true",
                    help="record verdicts, winners, counts and digests at --seed 0 in pins.json")
    args = ap.parse_args()
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", w,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode for w in WORKLOADS]
        return max(codes)
    if not os.path.isdir(os.path.join(SRC, "morgan")):
        print(f"error: no morgan sources under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, SRC)
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
