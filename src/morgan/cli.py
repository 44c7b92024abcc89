"""Command-line interface.

Commands: analyze, solve, verify, fixed-poles.  All comparisons are exact.
Exit codes: 0 success/PASS; 2 no solution found among the searched
configurations (not a proof that none exists: see decouple); 1 error, FAIL,
a usage error or an invalid polynomial option.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .admissible import enumerate_row_configs, enumerate_tuples
from .canonical import to_pencil_form
from .decouple import (
    DEFAULT_SEED,
    NoSolution,
    SolveOptions,
    check_closed_loop,
    solve as run_solve,
)
from .errors import InvalidSystem, MorganError, VerificationFailed
from .exactalg import format_poly, parse_poly
from .fileio import (
    dump_json,
    load_solution,
    load_system,
    matrix_from_json,
    no_solution_to_dict,
    poly_from_json,
    poly_to_json,
    solution_to_dict,
)
from .zeros import check_fixed_poles, closed_loop, routh_hurwitz_stable


def cmd_analyze(args) -> int:
    sys_ = load_system(args.system)
    pencil = to_pencil_form(sys_)
    m = sys_.m
    tuples = enumerate_tuples(pencil.sigma, m)
    configs = enumerate_row_configs(pencil.sigma, m)
    bound = len(tuples) * len(configs)
    if args.json:
        out = {
            "sigma": list(pencil.sigma),
            "admissible_tuples": [list(t) for t in tuples],
            "row_configs": [list(c.positions) for c in configs],
            "search_bound": bound,
            "n": sys_.n,
            "inputs": sys_.l,
            "outputs": m,
        }
        print(dump_json(out), end="")
    else:
        print(f"n = {sys_.n}, inputs = {sys_.l}, outputs = {m}")
        print(f"controllability indices sigma = {tuple(pencil.sigma)}")
        print(f"admissible closed-loop index tuples ({len(tuples)}):")
        for t in tuples:
            print(f"  {t}")
        print(f"feedback-row configurations ({len(configs)}), s-positions:")
        print("  " + ", ".join(str(c) for c in configs))
        print(f"search bound |I| * C(l, l-m) = {bound}")
    return 0


def cmd_solve(args) -> int:
    sys_ = load_system(args.system)
    diag_polys = None
    if args.diag_polys:
        diag_polys = tuple(parse_poly(p) for p in args.diag_polys.split(","))
    dz_target = parse_poly(args.dz_target) if args.dz_target else None
    options = SolveOptions(
        seed=args.seed,
        return_all=args.all,
        diag_polys=diag_polys,
        dz_target=dz_target,
    )
    result = run_solve(sys_, options)
    solved = not isinstance(result, NoSolution)
    text = dump_json(solution_to_dict(result) if solved else no_solution_to_dict(result))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    if args.json:
        print(text, end="")
    elif not solved:
        print("NO SOLUTION: every configuration of the finite search was rejected")
        print(f"  sigma = {tuple(result.sigma)}, configurations examined = {result.searched}")
    else:
        print(f"SOLVED with closed-loop indices {tuple(result.ci_tuple)} "
              f"at feedback rows {result.config}")
        print("diagonal closed loop:")
        for i, (num, den) in enumerate(result.diag):
            print(f"  H_{i + 1}{i + 1}(s) = ({format_poly(num)})/({format_poly(den)})")
        fp = result.fixed_poles
        print(f"input decoupling zeros: {format_poly(fp.input_dz_poly)}"
              f" ({'stable' if fp.input_dz_stable else 'not stable'})")
        print(f"fixed decoupling poles: {format_poly(fp.fixed_dec_poly)}"
              f" ({'stable' if fp.fixed_dec_stable else 'not stable'})")
        if args.out:
            print(f"solution written to {args.out}")
    return 0 if solved else 2


def _load_feedback(args):
    """The system, the solution data and its (F, G).

    VerificationFailed when the file records no solution.
    """
    sys_ = load_system(args.system)
    data = load_solution(args.solution)
    if data.get("no_solution"):
        raise VerificationFailed("solution file records no solution")
    return sys_, data, matrix_from_json(data.get("F"), "F"), matrix_from_json(data.get("G"), "G")


def _recorded_fixed_poles(data):
    """The recorded (input decoupling zeros, fixed decoupling poles)."""
    fp = data.get("fixed_poles")
    if not isinstance(fp, dict):
        raise InvalidSystem("fixed_poles must be an object")
    return (
        poly_from_json(fp.get("input_decoupling_zeros"), "input_decoupling_zeros"),
        poly_from_json(fp.get("wolovich_falb"), "wolovich_falb"),
    )


def cmd_verify(args) -> int:
    try:
        sys_, data, f, g = _load_feedback(args)
        diagonal = data.get("diagonal")
        if not isinstance(diagonal, list) or not all(isinstance(r, dict) for r in diagonal):
            raise InvalidSystem("diagonal must be an array of {num, den} objects")
        recorded = [
            (poly_from_json(rec.get("num"), "diagonal num"),
             poly_from_json(rec.get("den"), "diagonal den"))
            for rec in diagonal
        ]
        acl, chi = closed_loop(sys_, f, g)
        diag, failures = check_closed_loop(sys_, g, acl, chi, recorded)
        dz, unobs, fp_failures = check_fixed_poles(sys_, g, acl, chi, *_recorded_fixed_poles(data))
    except VerificationFailed as e:
        print(f"FAIL: {e}")
        return 1
    failures = [str(e) for e in failures + fp_failures]
    if args.json:
        print(
            dump_json(
                {
                    "pass": not failures,
                    "failures": failures,
                    "diagonal": [
                        {"num": poly_to_json(num), "den": poly_to_json(den)}
                        for num, den in diag
                    ],
                    "input_decoupling_zeros": poly_to_json(dz),
                    "unobservable_polynomial": poly_to_json(unobs),
                }
            ),
            end="",
        )
    else:
        if failures:
            print("FAIL")
            for msg in failures:
                print(f"  {msg}")
        else:
            print("PASS: closed loop is exactly diagonal and matches the file")
            for i, (num, den) in enumerate(diag):
                print(f"  H_{i + 1}{i + 1}(s) = ({format_poly(num)})/({format_poly(den)})")
            print(f"  input decoupling zeros: {format_poly(dz)} (cross-checked)")
            print(f"  closed-loop unobservable polynomial: {format_poly(unobs)}")
    return 1 if failures else 0


def cmd_fixed_poles(args) -> int:
    try:
        sys_, data, f, g = _load_feedback(args)
        recorded = _recorded_fixed_poles(data)
        dz, unobs, failures = check_fixed_poles(sys_, g, *closed_loop(sys_, f, g), *recorded)
    except VerificationFailed as e:
        print(f"FAIL: {e}")
        return 1
    consistent = not failures
    fixed_rec = recorded[1]
    if args.json:
        print(
            dump_json(
                {
                    "input_decoupling_zeros": poly_to_json(dz),
                    "input_decoupling_stable": routh_hurwitz_stable(dz),
                    "wolovich_falb_recorded": poly_to_json(fixed_rec),
                    "wolovich_falb_stable": routh_hurwitz_stable(fixed_rec),
                    "unobservable_polynomial": poly_to_json(unobs),
                    "consistent": consistent,
                }
            ),
            end="",
        )
    else:
        print(f"input decoupling zeros (recomputed): {format_poly(dz)} "
              f"({'stable' if routh_hurwitz_stable(dz) else 'not stable'})")
        print(f"fixed decoupling poles (recorded):   {format_poly(fixed_rec)} "
              f"({'stable' if routh_hurwitz_stable(fixed_rec) else 'not stable'})")
        print(f"closed-loop unobservable polynomial: {format_poly(unobs)}")
        print("consistent" if consistent else "INCONSISTENT with the solution file")
    return 0 if consistent else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once.  main looks each command function up
    by name when it runs, so a rebinding of cmd_solve and the like is seen."""
    ap = argparse.ArgumentParser(
        prog="morgan",
        description="Exact solver for Morgan's problem "
        "(diagonal decoupling by state feedback with singular input transformation)",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="print sigma, the admissible tuples and row configurations")
    p.add_argument("system", help="system JSON file (A, B, C)")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("solve", help="search for a decoupling pair")
    p.add_argument("system")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--all", action="store_true",
                   help="audit every configuration instead of stopping at the first solution")
    p.add_argument("--diag-polys",
                   help="comma-separated monic denominators for the diagonal, e.g. 's^2+2s+1,s+3'")
    p.add_argument("--dz-target",
                   help="monic polynomial the input decoupling zeros must realize")
    p.add_argument("--out", help="write the solution JSON here")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="recompute the exact closed loop and check a solution file")
    p.add_argument("system")
    p.add_argument("solution")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("fixed-poles", help="report and cross-check the fixed poles of a solution")
    p.add_argument("system")
    p.add_argument("solution")
    p.add_argument("--json", action="store_true")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        # argparse has printed the usage and the message; its status 2 would
        # read as "no solution"
        return 0 if e.code == 0 else 1
    try:
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (MorganError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (KeyError, IndexError, TypeError, ValueError) as e:
        print(f"error: malformed input ({type(e).__name__}: {e})", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
