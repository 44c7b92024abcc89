"""JSON file formats: systems in, solutions out.

System files carry A, B, C as nested arrays whose entries are integers or
'p/q' strings.  Solution files are fully deterministic for a fixed seed:
matrices and polynomial coefficient lists are serialized as exact rational
strings and dumped with sorted keys.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .canonical import StateSpace
from .decouple import DecouplingSolution, NoSolution
from .errors import InvalidSystem
from .exactalg import Poly, RationalMatrix

SOLUTION_FORMAT = "morgan-solution/1"


def _entry(x) -> Fraction:
    if isinstance(x, bool):
        raise InvalidSystem("entries must be integers or 'p/q' strings")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as e:
            raise InvalidSystem(f"bad rational entry {x!r}: {e}") from None
    raise InvalidSystem(f"bad entry {x!r} (use integers or 'p/q' strings)")


def matrix_from_json(data, name) -> RationalMatrix:
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise InvalidSystem(f"{name} must be a nonempty array of arrays")
    widths = {len(r) for r in data}
    if len(widths) != 1:
        raise InvalidSystem(f"{name} is ragged")
    return RationalMatrix([[_entry(x) for x in row] for row in data])


def matrix_to_json(m: RationalMatrix):
    return [[str(x) for x in row] for row in m.entries]


def poly_to_json(p: Poly):
    """Ascending coefficient list as strings; [] is the zero polynomial."""
    return [str(c) for c in p.coeffs]


def poly_from_json(data, name) -> Poly:
    if not isinstance(data, list):
        raise InvalidSystem(f"{name} must be an array of coefficients")
    return Poly([_entry(c) for c in data])


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as e:
            raise InvalidSystem(f"{path}: not valid JSON ({e})") from None


def load_system(path) -> StateSpace:
    data = _read_json(path)
    for key in ("A", "B", "C"):
        if key not in data:
            raise InvalidSystem(f"{path}: missing matrix {key!r}")
    a = matrix_from_json(data["A"], "A")
    b = matrix_from_json(data["B"], "B")
    c = matrix_from_json(data["C"], "C")
    return StateSpace(A=a, B=b, C=c)


def dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _audit(outcomes, searched) -> dict:
    """The audit entries that solution and no-solution payloads share."""
    return {
        "configurations": [
            {
                "tuple": list(o.ci_tuple),
                "config_positions": list(o.config.positions),
                "status": o.status,
                "reason": o.reason,
            }
            for o in outcomes
        ],
        "searched": searched,
    }


def solution_to_dict(sol: DecouplingSolution) -> dict:
    fp = sol.fixed_poles
    t, fam = sol.squaring.t, sol.mu_family
    t_names = [[f"t^{{{i}}}_{k}" for k in range(1, len(fam.nullbasis) + 1)]
               for i in range(1, len(fam.particulars) + 1)]  # the entries of T
    return {
        "format": SOLUTION_FORMAT,
        "seed": sol.seed,
        "sigma": list(sol.sigma),
        "ci_tuple": list(sol.ci_tuple),
        "row_config": {
            "blocks": list(sol.config.blocks),
            "positions": list(sol.config.positions),
        },
        "F": matrix_to_json(sol.F),
        "G": matrix_to_json(sol.G),
        "diagonal": [
            {"num": poly_to_json(num), "den": poly_to_json(den)}
            for num, den in sol.diag
        ],
        "fixed_poles": {
            "input_decoupling_zeros": poly_to_json(fp.input_dz_poly),
            "input_decoupling_stable": fp.input_dz_stable,
            "wolovich_falb": poly_to_json(fp.fixed_dec_poly),
            "wolovich_falb_stable": fp.fixed_dec_stable,
            "free_parameters": [name for row in t_names for name in row],
            "t_assignment": {} if t is None else {
                name: str(v) for names, row in zip(t_names, t) for name, v in zip(names, row)
            },
        },
        "audit": {
            "constraints": list(sol.constraints),
            "degree_deficits": list(sol.degree_deficits),
            "q_assignment": {
                str(p): str(v) for p, v in sorted(sol.squaring.assignment.items())
            },
            "mu_rows": [[str(x) for x in row] for row in sol.squaring.M_rows],
            **_audit(sol.outcomes, len(sol.outcomes)),
        },
    }


def no_solution_to_dict(res: NoSolution) -> dict:
    return {
        "format": SOLUTION_FORMAT,
        "seed": res.seed,
        "sigma": list(res.sigma),
        "no_solution": True,
        "reason": res.reason,
        "audit": _audit(res.outcomes, res.searched),
    }


def load_solution(path) -> dict:
    data = _read_json(path)
    if not isinstance(data, dict):
        raise InvalidSystem(f"{path}: a solution file must hold a JSON object")
    if data.get("format") != SOLUTION_FORMAT:
        raise InvalidSystem(
            f"{path}: unsupported solution format {data.get('format')!r}"
        )
    return data
