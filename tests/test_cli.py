"""Command-line surface: files, flags, exit codes, determinism."""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

import golden_data as pd
from morgan.canonical import StateSpace, _staircase_select
from morgan.cli import main
from morgan.decouple import _check_right_invertible
from morgan.errors import InvalidSystem
from morgan.fileio import dump_json, load_solution, matrix_to_json, poly_to_json
from morgan.exactalg import RationalMatrix, parse_poly

NOSOL_7_66 = str(Path(__file__).resolve().parent.parent / "perfbench" / "data" / "nosol_7_66.json")
NOSOL_7_70 = str(Path(__file__).resolve().parent.parent / "perfbench" / "data" / "nosol_7_70.json")
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")

    def write(name, payload):
        path = d / name
        path.write_text(dump_json(payload))
        return str(path)

    ex1 = write(
        "ex1.json",
        {"A": matrix_to_json(pd.EX1_A), "B": matrix_to_json(pd.EX1_B), "C": matrix_to_json(pd.EX1_C)},
    )
    ex2 = write(
        "ex2.json",
        {"A": matrix_to_json(pd.EX2_A), "B": matrix_to_json(pd.EX2_B), "C": matrix_to_json(pd.EX2_C)},
    )
    return d, ex1, ex2


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestAnalyze:
    def test_example1_json(self, files, capsys):
        _, ex1, _ = files
        rc, out, _ = run(capsys, ["analyze", ex1, "--json"])
        assert rc == 0
        data = json.loads(out)
        assert data["sigma"] == [1, 1, 3, 4]
        assert data["admissible_tuples"] == [list(t) for t in pd.EX1_I_LIST]
        assert data["row_configs"] == [list(t) for t in pd.EX1_M_POSITIONS]
        assert data["search_bound"] == 36

    def test_example2_json(self, files, capsys):
        _, _, ex2 = files
        rc, out, _ = run(capsys, ["analyze", ex2, "--json"])
        assert rc == 0
        data = json.loads(out)
        assert len(data["admissible_tuples"]) == 16
        assert len(data["row_configs"]) == 10
        assert data["search_bound"] == 160

    def test_identity_b(self, files, capsys):
        d, _, _ = files
        path = d / "ident.json"
        path.write_text(
            dump_json(
                {
                    "A": [[0, 1], [0, 0]],
                    "B": [[1, 0], [0, 1]],
                    "C": [[1, 0]],
                }
            )
        )
        rc, out, _ = run(capsys, ["analyze", str(path), "--json"])
        data = json.loads(out)
        assert data["sigma"] == [1, 1]

    def test_bad_file(self, files, capsys):
        d, _, _ = files
        path = d / "broken.json"
        path.write_text("{not json")
        rc, _, err = run(capsys, ["analyze", str(path)])
        assert rc == 1
        assert "error" in err

    def test_not_controllable(self, files, capsys):
        d, _, _ = files
        path = d / "unctrl.json"
        path.write_text(
            dump_json({"A": [[1, 0], [0, 2]], "B": [[1], [0]], "C": [[1, 0]]})
        )
        rc, _, err = run(capsys, ["analyze", str(path)])
        assert rc == 1
        assert err == "error: controllability matrix has rank 1 < n = 2\n"


class TestSolve:
    def test_example1_roundtrip(self, files, capsys):
        d, ex1, _ = files
        out_path = str(d / "sol1.json")
        rc, _, _ = run(capsys, ["solve", ex1, "--out", out_path])
        assert rc == 0
        data = load_solution(out_path)
        assert data["ci_tuple"] == [1, 4, 4]
        assert data["row_config"]["positions"] == [1]
        rc, out, _ = run(capsys, ["verify", ex1, out_path])
        assert rc == 0
        assert "PASS" in out

    def test_byte_identical_reruns(self, files, capsys):
        _, ex1, _ = files
        rc1, out1, _ = run(capsys, ["solve", ex1, "--json", "--seed", "7"])
        rc2, out2, _ = run(capsys, ["solve", ex1, "--json", "--seed", "7"])
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_seed_changes_output(self, files, capsys):
        _, ex1, _ = files
        _, out1, _ = run(capsys, ["solve", ex1, "--json", "--seed", "7"])
        _, out2, _ = run(capsys, ["solve", ex1, "--json", "--seed", "8"])
        d1, d2 = json.loads(out1), json.loads(out2)
        assert d1["ci_tuple"] == d2["ci_tuple"]  # search decisions are stable
        assert d1["seed"] != d2["seed"]

    def test_no_solution_exit_2(self, capsys):
        rc, out, _ = run(capsys, ["solve", NOSOL_7_70])
        assert rc == 2
        assert "NO SOLUTION" in out

    @pytest.mark.parametrize("name", sorted(pd.NOT_RIGHT_INVERTIBLE))
    def test_not_right_invertible_exit_1(self, files, capsys, name):
        d, _, _ = files
        path = d / f"{name}.json"
        path.write_text(dump_json(pd.NOT_RIGHT_INVERTIBLE[name]))
        rc, out, err = run(capsys, ["solve", str(path)])
        assert rc == 1
        assert out == ""
        assert err.startswith("error: ") and "not right-invertible" in err

    def test_dz_target(self, files, capsys):
        d, _, ex2 = files
        out_path = str(d / "sol2dz.json")
        rc, _, _ = run(capsys, ["solve", ex2, "--dz-target", "s^2+3s+2", "--out", out_path])
        assert rc == 0
        data = load_solution(out_path)
        assert data["fixed_poles"]["input_decoupling_zeros"] == ["2", "3", "1"]
        rc, out, _ = run(capsys, ["verify", ex2, out_path])
        assert rc == 0

    def test_dz_target_degree_mismatch_exit_2(self, files, capsys):
        # only the search checks deg(target) = n - sum(sigma_tilde); a
        # configuration of another degree is rejected with that reason
        _, _, ex2 = files
        rc, out, _ = run(capsys, ["solve", ex2, "--dz-target", "s^3+1", "--json"])
        assert rc == 2
        reasons = {c["reason"] for c in json.loads(out)["audit"]["configurations"]}
        assert "input-decoupling-zero target degree 3 != n - sum(sigma_tilde) = 2" in reasons

    def test_diag_polys(self, files, capsys):
        _, ex1, _ = files
        rc, out, _ = run(
            capsys,
            ["solve", ex1, "--json", "--diag-polys", "s^4+2s-3,s+3,s^4+s-1"],
        )
        assert rc == 0
        data = json.loads(out)
        assert data["diagonal"][0]["den"] == poly_to_json(parse_poly("s^4+2s-3"))

    def test_bad_poly_string(self, files, capsys):
        _, ex1, _ = files
        rc, _, err = run(capsys, ["solve", ex1, "--dz-target", "s^^2"])
        assert rc == 1

    def test_wrong_diag_poly_count(self, files, capsys):
        _, ex1, _ = files
        rc, _, err = run(capsys, ["solve", ex1, "--diag-polys", "s+1,s+2"])
        assert rc == 1
        assert "per output" in err

    def test_corrupt_solution_file(self, files, capsys):
        d, ex1, _ = files
        path = d / "corrupt.json"
        path.write_text('{"format": "morgan-solution/1", "F": [[1]]}')
        rc, _, err = run(capsys, ["verify", ex1, str(path)])
        assert rc == 1


class TestUsageErrors:
    """Usage errors exit 1 with the usage on stderr; 2 means no solution."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["--bogus"],
            [],
            ["--seed", "x"],
            ["--jobs", "2"],
        ],
    )
    def test_exit_1(self, argv, files, capsys):
        _, ex1, _ = files
        rc, out, err = run(capsys, ["solve"] + ([ex1] if argv else []) + argv)
        assert rc == 1
        assert out == ""
        assert "usage:" in err

    def test_help_exits_0(self, capsys):
        rc, out, _ = run(capsys, ["solve", "--help"])
        assert rc == 0
        assert "usage:" in out

    def test_python_m_morgan(self, files):
        _, ex1, _ = files
        proc = subprocess.run(
            [sys.executable, "-m", "morgan", "solve", ex1, "--bogus"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "usage:" in proc.stderr


class TestInvalidPolynomialOptions:
    """A zero, non-monic or unparsable (zero denominator) polynomial option,
    or a wrong number of diagonal polynomials, is an error (exit 1) on
    solvable and unsolved inputs alike."""

    @pytest.mark.parametrize(
        "system, flags",
        [
            ("ex2", ["--dz-target", "0"]),
            ("ex2", ["--dz-target", "2"]),
            ("nosol", ["--dz-target", "2"]),
            ("ex1", ["--diag-polys", "0,s+1,s+1"]),
            ("ex2", ["--diag-polys", "s+1"]),
            ("nosol", ["--diag-polys", "s+1"]),
            ("ex2", ["--dz-target", "s^2+1/0"]),
            ("ex2", ["--diag-polys", "s+1/0,s+1,s+1"]),
        ],
    )
    def test_exit_1(self, system, flags, files, capsys):
        _, ex1, ex2 = files
        path = {"ex1": ex1, "ex2": ex2, "nosol": NOSOL_7_66}[system]
        rc, out, err = run(capsys, ["solve", path] + flags)
        assert rc == 1
        assert out == ""
        assert err.startswith("error: ")


class TestVerify:
    def _hand_solution(self, d, f, g, dens, dz="1", wf="1"):
        payload = {
            "format": "morgan-solution/1",
            "F": matrix_to_json(f),
            "G": matrix_to_json(g),
            "diagonal": [
                {"num": ["1"], "den": poly_to_json(parse_poly(t))} for t in dens
            ],
            "fixed_poles": {
                "input_decoupling_zeros": poly_to_json(parse_poly(dz)),
                "wolovich_falb": poly_to_json(parse_poly(wf)),
            },
        }
        path = d / "hand.json"
        path.write_text(dump_json(payload))
        return str(path)

    def test_example1_reference_pair_passes(self, files, capsys):
        d, ex1, _ = files
        path = self._hand_solution(d, pd.EX1_F_FINAL, pd.EX1_G_FINAL, pd.EX1_DIAG_DENS)
        rc, out, _ = run(capsys, ["verify", ex1, path])
        assert rc == 0
        assert "PASS" in out

    def test_example2_reference_pair_passes(self, files, capsys):
        d, _, ex2 = files
        path = self._hand_solution(
            d,
            pd.ex2_f_final(0, 0, 0, 0),
            pd.EX2_G_FINAL,
            pd.EX2_DIAG_DENS,
            dz="s^2",
            wf="s^4-s^3-2s^2+s+2",
        )
        rc, out, _ = run(capsys, ["verify", ex2, path])
        assert rc == 0

    def test_perturbed_entry_fails(self, files, capsys):
        d, ex1, _ = files
        rows = [list(r) for r in pd.EX1_F_FINAL.entries]
        rows[0][1] += 1
        from morgan.exactalg import RationalMatrix

        path = self._hand_solution(
            d, RationalMatrix(rows), pd.EX1_G_FINAL, pd.EX1_DIAG_DENS
        )
        rc, out, _ = run(capsys, ["verify", ex1, path])
        assert rc == 1
        assert "FAIL" in out
        # the perturbation breaks an exact cancellation: an off-diagonal
        # entry is named explicitly
        assert "off-diagonal entry (1,2)" in out

    def test_trivial_diagonal_system(self, files, capsys):
        d, _, _ = files
        sys_path = d / "diag.json"
        sys_path.write_text(
            dump_json(
                {
                    "A": [[-1, 0], [0, -2]],
                    "B": [[1, 0], [0, 1]],
                    "C": [[1, 0], [0, 1]],
                }
            )
        )
        from morgan.exactalg import RationalMatrix

        path = self._hand_solution(
            d,
            RationalMatrix.zeros(2, 2),
            RationalMatrix.identity(2),
            ["s+1", "s+2"],
        )
        rc, out, _ = run(capsys, ["verify", str(sys_path), path])
        assert rc == 0
        assert "PASS" in out

    def test_dimension_mismatch(self, files, capsys):
        d, ex1, _ = files
        from morgan.exactalg import RationalMatrix

        path = self._hand_solution(
            d, RationalMatrix.zeros(2, 2), RationalMatrix.identity(2), ["s+1", "s+2"]
        )
        rc, out, _ = run(capsys, ["verify", ex1, path])
        assert rc == 1

    def test_zero_column_of_g(self, files, capsys):
        # H = diag(1/(s+1), 0): the second input never reaches the output
        d, _, _ = files
        sys_path = d / "diag_zero_g.json"
        sys_path.write_text(
            dump_json({"A": [[-1, 0], [0, -2]], "B": [[1, 0], [0, 1]], "C": [[1, 0], [0, 1]]})
        )
        path = self._hand_solution(
            d, RationalMatrix.zeros(2, 2), RationalMatrix([[1, 0], [0, 0]]), ["s+1", "s+2"]
        )
        rc, out, _ = run(capsys, ["verify", str(sys_path), path])
        assert rc == 1
        assert out.startswith("FAIL\n")
        assert "  diagonal entry 2 is zero\n" in out


class TestFixedPoles:
    def test_consistent_solution(self, files, capsys):
        d, _, ex2 = files
        out_path = str(d / "sol2.json")
        rc, _, _ = run(capsys, ["solve", ex2, "--out", out_path])
        assert rc == 0
        rc, out, _ = run(capsys, ["fixed-poles", ex2, out_path, "--json"])
        assert rc == 0
        data = json.loads(out)
        assert data["consistent"] is True


class TestErrorPaths:
    """User-facing errors: each exits 1 with its message."""

    @pytest.mark.parametrize("cmd", ["verify", "fixed-poles"])
    def test_no_solution_file(self, cmd, tmp_path, capsys):
        out = str(tmp_path / "nosol.json")
        rc, _, _ = run(capsys, ["solve", NOSOL_7_70, "--out", out])
        assert rc == 2
        rc, text, _ = run(capsys, [cmd, NOSOL_7_70, out])
        assert rc == 1
        assert text == "FAIL: solution file records no solution\n"

    def test_missing_system_file(self, tmp_path, capsys):
        rc, out, err = run(capsys, ["solve", str(tmp_path / "absent.json")])
        assert rc == 1
        assert out == ""
        assert err.startswith("error: ") and "absent.json" in err

    def test_other_solution_format(self, files, capsys):
        d, ex1, _ = files
        path = d / "other_format.json"
        path.write_text(dump_json({"format": "morgan-solution/0", "F": [[1]]}))
        rc, _, err = run(capsys, ["verify", ex1, str(path)])
        assert rc == 1
        assert "unsupported solution format 'morgan-solution/0'" in err

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"A": [[0, 1]], "B": [[1]], "C": [[1, 0]]}, "A must be square"),
            ({"A": [[0, 1], [0, 0]], "B": [[1]], "C": [[1, 0]]}, "B must have as many rows as A"),
            ({"A": [[0, 1], [0, 0]], "B": [[0], [1]], "C": [[1]]},
             "C must have as many columns as A"),
            ({"A": [[0, 1], [0]], "B": [[0], [1]], "C": [[1, 0]]}, "A is ragged"),
            ({"A": [[0, True], [0, 0]], "B": [[0], [1]], "C": [[1, 0]]},
             "entries must be integers or 'p/q' strings"),
            ({"A": [[0, 0.5], [0, 0]], "B": [[0], [1]], "C": [[1, 0]]},
             "bad entry 0.5 (use integers or 'p/q' strings)"),
            ({"A": [[0, 1], [0, 0]], "B": [[0], [1]]}, "missing matrix 'C'"),
        ],
        ids=["nonsquare_A", "B_rows", "C_cols", "ragged", "bool", "float", "missing_C"],
    )
    def test_invalid_system(self, payload, message, tmp_path, capsys):
        path = tmp_path / "invalid.json"
        path.write_text(json.dumps(payload))
        rc, out, err = run(capsys, ["solve", str(path)])
        assert rc == 1
        assert out == ""
        assert err.startswith("error: ") and message in err


def perfbench_oracle():
    """perfbench/oracle.py, the reference checks that do not import morgan."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import oracle
    finally:
        sys.path.remove(str(PERFBENCH))
    return oracle


def decoupling_rows(system, oracle):
    """(B*, [C_i A^{d_i+1}], d) of a system dict, d_i the relative degree of
    output i and B* the rows C_i A^{d_i} B.  Plain fractions through the
    oracle's helpers."""
    a, b, c = (oracle.matrix(system[k]) for k in "ABC")
    b_star, next_rows, ds = [], [], []
    for c_i in c:
        row = [c_i]
        for d in range(len(a)):
            (head,) = oracle.matmul(row, b)
            if any(head):
                break
            row = oracle.matmul(row, a)
        else:
            raise AssertionError("an output row with no relative degree")
        b_star.append(head)
        next_rows.append(oracle.matmul(row, a)[0])
        ds.append(d)
    return b_star, next_rows, ds


def falb_wolovich_pair(system, oracle):
    """The Falb-Wolovich decoupling pair of a system dict, as a solution dict.

    With B* of rank m (see decoupling_rows), G = B*^T (B* B*^T)^-1 and
    F = -G [C_i A^{d_i+1}] give H = diag(1/s^{d_i+1}).
    """
    b_star, next_rows, ds = decoupling_rows(system, oracle)
    m = len(b_star)
    b_star_t = [list(col) for col in zip(*b_star)]
    ident = [[int(i == j) for j in range(m)] for i in range(m)]
    inv = oracle.solve_square(oracle.matmul(b_star, b_star_t), ident)
    assert inv is not None, "B* does not have rank m"
    g = oracle.matmul(b_star_t, inv)
    f = [[-x for x in row] for row in oracle.matmul(g, next_rows)]
    return {
        "F": [[str(x) for x in row] for row in f],
        "G": [[str(x) for x in row] for row in g],
        "diagonal": [{"num": ["1"], "den": ["0"] * (d + 1) + ["1"]} for d in ds],
    }


def random_system_files(d, seed, count):
    """count seeded random controllable, right-invertible systems (n 4-6) as files."""
    rng = random.Random(seed)
    paths = []
    while len(paths) < count:
        n = rng.randint(4, 6)
        l = rng.randint(2, min(4, n))
        m = rng.randint(1, l)
        a, b, c = (
            RationalMatrix([[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)])
            for rows, cols in ((n, n), (n, l), (m, n))
        )
        try:
            system = StateSpace(A=a, B=b, C=c)
            _staircase_select(a, b)
            _check_right_invertible(system)
        except InvalidSystem:  # NotControllable too
            continue
        path = d / f"random_{len(paths)}.json"
        path.write_text(dump_json({k: matrix_to_json(x) for k, x in zip("ABC", (a, b, c))}))
        paths.append(str(path))
    return paths


class TestRandomRoundTrip:
    """solve --out, then verify and fixed-poles on the file, on random systems.

    Every system has a Falb-Wolovich decoupling pair that the independent
    oracle accepts, so every one must solve: a NO SOLUTION here is a false
    negative.
    """

    def test_solve_verify_fixed_poles(self, tmp_path, capsys):
        for i, system in enumerate(random_system_files(tmp_path, 4242, 10)):
            out = str(tmp_path / f"sol_{i}.json")
            rc, text, _ = run(capsys, ["solve", system, "--out", out, "--seed", str(i)])
            assert rc == 0, (i, text)
            rc, text, _ = run(capsys, ["verify", system, out])
            assert rc == 0 and text.startswith("PASS"), text
            rc, text, _ = run(capsys, ["fixed-poles", system, out])
            assert rc == 0 and text.endswith("consistent\n"), text

    def test_every_system_has_a_decoupling_pair(self, tmp_path):
        oracle = perfbench_oracle()
        for path in random_system_files(tmp_path, 4242, 10):
            system = json.loads(Path(path).read_text())
            assert oracle.system_problems(system) == []
            pair = falb_wolovich_pair(system, oracle)
            assert oracle.solution_problems(system, pair) == []
            assert oracle.solution_problems(system, oracle.perturbed(pair)) != []


def falb_wolovich_corpus(oracle):
    """The seeded corpus of small systems, as {kind: [system dict]}.

    Workload seed 11: n in 3-6, l <= 3, integer entries in [-2, 2], each
    nonzero with probability 1/2; only systems that meet the solver's
    preconditions (oracle.system_problems) are kept.  'm = 1' holds 60
    systems with l in 2-3, 'l = m' 60 with l = m in 2-3 and 'l > m' 48 with
    l = 3 and m = 2, all with rank B* = m.  'B* singular' holds the l = m
    systems drawn on the way whose B* is singular.
    """
    rng = random.Random(11)

    def matrix(rows, cols):
        return [[rng.choice((-2, -1, 1, 2)) if rng.random() < 0.5 else 0
                 for _ in range(cols)] for _ in range(rows)]

    shapes = {"m = 1": (60, (2, 3), 1), "l = m": (60, (2, 3), None), "l > m": (48, (3, 3), 2)}
    corpus = {kind: [] for kind in shapes}
    corpus["B* singular"] = []
    for kind, (count, ls, m) in shapes.items():
        while len(corpus[kind]) < count:
            l = rng.randint(*ls)
            n = rng.randint(3, 6)
            system = {"A": matrix(n, n), "B": matrix(n, l), "C": matrix(m or l, n)}
            if oracle.system_problems(system):
                continue
            b_star = decoupling_rows(system, oracle)[0]
            if oracle.rank(b_star) == len(b_star):
                corpus[kind].append(system)
            elif kind == "l = m":
                corpus["B* singular"].append(system)
    return corpus


class TestFalbWolovichCorpus:
    """Falb and Wolovich (1967): a system with rank B* = m has a decoupling
    pair, and for l = m a pair exists exactly when B* is nonsingular.  So on
    the seeded corpus every rank B* = m system must solve and verify at
    solver seed 1729, and every square system with B* singular must exit 2."""

    def test_verdicts_match_the_falb_wolovich_criterion(self, tmp_path, capsys):
        oracle = perfbench_oracle()
        corpus = falb_wolovich_corpus(oracle)
        assert corpus["B* singular"]
        for kind, systems in corpus.items():
            for i, system in enumerate(systems):
                path = tmp_path / "system.json"
                path.write_text(json.dumps(system))
                out = tmp_path / "solution.json"
                rc, text, _ = run(capsys, ["solve", str(path), "--out", str(out), "--seed", "1729"])
                if kind == "B* singular":
                    assert rc == 2, (kind, i, text)
                    continue
                assert rc == 0, (kind, i, text)
                rc, text, _ = run(capsys, ["verify", str(path), str(out)])
                assert rc == 0, (kind, i, text)
                assert oracle.solution_problems(system, json.loads(out.read_text())) == []


class TestEntryPoint:
    def test_console_script(self, files):
        _, ex1, _ = files
        proc = subprocess.run(
            [sys.executable, "-m", "morgan.cli", "analyze", ex1, "--json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["search_bound"] == 36


class TestShippedData:
    def test_bundled_example_files(self, capsys):
        import os

        root = os.path.join(os.path.dirname(__file__), "..", "data")
        rc, out, _ = run(
            capsys, ["analyze", os.path.join(root, "example1_system.json"), "--json"]
        )
        assert rc == 0 and json.loads(out)["sigma"] == [1, 1, 3, 4]
        rc, out, _ = run(
            capsys, ["analyze", os.path.join(root, "example2_system.json"), "--json"]
        )
        assert rc == 0 and json.loads(out)["search_bound"] == 160


class TestPinnedBytes:
    """Solution files at the default seed are pinned byte for byte.

    The digests are the ones in perfbench/pins.json.  A change of rank
    kernel, random-draw order or audit text changes them, so a change that
    means to move them must say so and update both places.
    """

    PINS = [
        ("example1_system.json", [],
         "7c8a9091e79a93c78ad764a6b45f4b2ec12109a94358f1fb2e3e78f3808b54d7"),
        ("example2_system.json", [],
         "24837a3cf052e6d68e92942e34dd56f2a788b586d86b08230394ba7463677de4"),
        ("example2_system.json", ["--dz-target", "s^2+3s+2"],
         "34b4c62e5152d1259328deafd408b91619d3ebe472aec8e7081633d6af9ebed0"),
    ]

    @pytest.mark.parametrize("name, extra, digest", PINS)
    def test_solution_sha256(self, name, extra, digest, tmp_path, capsys):
        import hashlib
        from pathlib import Path

        system = str(Path(__file__).resolve().parent.parent / "data" / name)
        out = tmp_path / "sol.json"
        rc, _, _ = run(capsys, ["solve", system, "--out", str(out), "--seed", "1729"] + extra)
        assert rc == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestPinnedFullGrid:
    """Searches that decide every configuration, pinned at the default seed.

    Example 2 --all and the three no-solution inputs of the benchmark's
    full-grid workload: exit code, configurations searched and the sha256
    of the solution file, as in perfbench/pins.json.
    """

    PINS = [
        ("example2", ["--all"], 0, 160,
         "4dc7f65a71830d676e5d1ea5cf6977ed0695e82b60962611583b247907707b32"),
        ("nosol_7_112", [], 2, 24,
         "458cc115cbc5f8a5f92c7498b3e9f2d7b70b0628b19d290f7b4551fe0e98bb60"),
        ("nosol_7_66", [], 2, 72,
         "3572d84824f4cb670b3938cc3cc06a500f0dae4e0c723d775dfb79259880b065"),
        ("nosol_7_70", [], 2, 28,
         "d30a2ad04da63ce63fa370bdf7cbce2b6e5d621c5ebb3d7dd62d88bdb9f39890"),
    ]

    @pytest.mark.parametrize("name, extra, code, searched, digest", PINS)
    def test_solution_file(self, name, extra, code, searched, digest, tmp_path, capsys):
        import hashlib

        system = str(Path(__file__).resolve().parent.parent / "perfbench" / "data" / f"{name}.json")
        out = tmp_path / "sol.json"
        rc, _, _ = run(capsys, ["solve", system, "--out", str(out), "--seed", "1729"] + extra)
        raw = out.read_bytes()
        assert (rc, json.loads(raw)["audit"]["searched"]) == (code, searched)
        assert hashlib.sha256(raw).hexdigest() == digest


class TestDzTargetVerifies:
    """At these seeds the winning numeric Q_B leaves a common factor in a row
    of N(s) = C_r Q_B S~(s).  That factor is an unobservable closed-loop
    mode, and the fixed-pole record must hold it for verify to pass."""

    @pytest.mark.parametrize("seed", [1731, 2734])
    def test_solve_then_verify(self, seed, files, capsys):
        d, _, ex2 = files
        out = str(d / f"dz_{seed}.json")
        rc, _, _ = run(
            capsys,
            ["solve", ex2, "--dz-target", "s^2+3s+2", "--out", out, "--seed", str(seed)],
        )
        assert rc == 0
        rc, text, _ = run(capsys, ["verify", ex2, out])
        assert rc == 0, text


SEED_1729_CASES = {
    "ex1": ("example1_system.json", []),
    "ex2": ("example2_system.json", []),
    "ex2dz": ("example2_system.json", ["--dz-target", "s^2+3s+2"]),
}


@pytest.fixture(scope="module")
def seed_1729_solutions(tmp_path_factory):
    """Solution files of the pinned cases at solver seed 1729."""
    from pathlib import Path

    d = tmp_path_factory.mktemp("seed1729")
    root = Path(__file__).resolve().parent.parent / "data"
    out = {}
    for case, (name, extra) in SEED_1729_CASES.items():
        system = str(root / name)
        sol = str(d / f"{case}.json")
        assert main(["solve", system, "--out", sol, "--seed", "1729"] + extra) == 0
        out[case] = (system, sol)
    return out


class TestPinnedCheckOutput:
    """The exact stdout of verify and fixed-poles on the pinned solutions."""

    PINS = [
        ("ex1", ["verify", "--json"],
         "b5ae3c5b96e8325de81e038ff6852134d8dda951df1d15e1b11ecd9b18add90e"),
        ("ex1", ["verify"],
         "31ed2d3f1bc2d84334c0fbdefc2a175fd528028143e44db72f992d5ba9f13d7e"),
        ("ex1", ["fixed-poles", "--json"],
         "c3a08f552fb1d86b6986eb9eeb98ad81723e7e5bf4de823e862dde072b2411ff"),
        ("ex2", ["verify", "--json"],
         "a2b92a116d163d5a48532383e0dddd62d00e28b8e2cc64dbd0d9e996aec7cb58"),
        ("ex2", ["verify"],
         "2a80a33a95170f6df29e9066da40eeafa292c8e635c5add670e7070076fdc655"),
        ("ex2", ["fixed-poles", "--json"],
         "6a59e4c535dee9d02a004582d1f22e394a14c5bcb51b0eaad0020ab939f5c5ca"),
        ("ex2dz", ["verify", "--json"],
         "161fe64e3c9e7d574f568eb52659ba53490000db475cc6c8e3a5c55abcb9098b"),
        ("ex2dz", ["verify"],
         "5498e7c9207e5594988429970e4bbd11b415466d58ca6d3b4dd71271b3b95436"),
        ("ex2dz", ["fixed-poles", "--json"],
         "fb3283c9eee0144c54350ba8aac39573f66720f394867366d18027427e640b30"),
    ]

    @pytest.mark.parametrize("case, cmd, digest", PINS)
    def test_stdout_sha256(self, case, cmd, digest, seed_1729_solutions, capsys):
        import hashlib

        system, sol = seed_1729_solutions[case]
        capsys.readouterr()
        rc, out, _ = run(capsys, [cmd[0], system, sol] + cmd[1:])
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestFailureLines:
    """Exact failure lines of verify and fixed-poles on a hand-built system.

    A = 0, B = I_4, C picks states 1 and 2.  With F = diag(-1, -1, -3, -4)
    and G = [e1, e2 + e3] the closed loop is diag(1/(s+1), 1/(s+1)), state 4
    is uncontrollable (s+4) and states 3, 4 are unobservable (s^2+7s+12), so
    the consistent record is dz = s+4 and fixed poles s+3.
    """

    F = [[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -3, 0], [0, 0, 0, -4]]
    G = [[1, 0], [0, 1], [0, 1], [0, 0]]

    def _files(self, d, f=None, dz="s+4", wf="s+3"):
        system = d / "fourstate.json"
        system.write_text(
            dump_json(
                {
                    "A": [[0] * 4 for _ in range(4)],
                    "B": [[int(i == j) for j in range(4)] for i in range(4)],
                    "C": [[1, 0, 0, 0], [0, 1, 0, 0]],
                }
            )
        )
        solution = d / "fourstate_solution.json"
        solution.write_text(
            dump_json(
                {
                    "format": "morgan-solution/1",
                    "F": [[str(x) for x in row] for row in (f or self.F)],
                    "G": [[str(x) for x in row] for row in self.G],
                    "diagonal": [{"num": ["1"], "den": ["1", "1"]}] * 2,
                    "fixed_poles": {
                        "input_decoupling_zeros": poly_to_json(parse_poly(dz)),
                        "wolovich_falb": poly_to_json(parse_poly(wf)),
                    },
                }
            )
        )
        return str(system), str(solution)

    def test_consistent_record_passes(self, tmp_path, capsys):
        system, solution = self._files(tmp_path)
        rc, out, _ = run(capsys, ["verify", system, solution])
        assert rc == 0
        assert out == (
            "PASS: closed loop is exactly diagonal and matches the file\n"
            "  H_11(s) = (1)/(s+1)\n"
            "  H_22(s) = (1)/(s+1)\n"
            "  input decoupling zeros: s+4 (cross-checked)\n"
            "  closed-loop unobservable polynomial: s^2+7s+12\n"
        )
        rc, out, _ = run(capsys, ["fixed-poles", system, solution])
        assert rc == 0
        assert out.endswith("consistent\n")

    def test_perturbed_f(self, tmp_path, capsys):
        f = [list(row) for row in self.F]
        f[0][1] = 1  # couples output 1 to state 2
        f[1][2] = 1  # makes state 3 observable and changes H_22
        system, solution = self._files(tmp_path, f=f)
        rc, out, _ = run(capsys, ["verify", system, solution])
        assert rc == 1
        assert out == (
            "FAIL\n"
            "  off-diagonal entry (1,2) = (s+4)/(s^3+5s^2+7s+3) != 0\n"
            "  diagonal entry 2 is (s+4)/(s^2+4s+3), file records (1)/(s+1)\n"
            "  recorded fixed decoupling poles do not divide the closed-loop "
            "unobservable polynomial s+4\n"
        )
        rc, out, _ = run(capsys, ["fixed-poles", system, solution])
        assert rc == 1
        assert out == (
            "input decoupling zeros (recomputed): s+4 (stable)\n"
            "fixed decoupling poles (recorded):   s+3 (stable)\n"
            "closed-loop unobservable polynomial: s+4\n"
            "INCONSISTENT with the solution file\n"
        )

    def test_wrong_input_decoupling_zeros(self, tmp_path, capsys):
        system, solution = self._files(tmp_path, dz="s+5")
        rc, out, _ = run(capsys, ["verify", system, solution])
        assert rc == 1
        assert out == (
            "FAIL\n"
            "  uncontrollable polynomial of the closed loop is s+4, file records s+5\n"
        )
        rc, out, _ = run(capsys, ["fixed-poles", system, solution, "--json"])
        assert rc == 1
        assert json.loads(out)["consistent"] is False

    def test_wrong_fixed_poles(self, tmp_path, capsys):
        system, solution = self._files(tmp_path, wf="s+5")
        rc, out, _ = run(capsys, ["verify", system, solution])
        assert rc == 1
        assert out == (
            "FAIL\n"
            "  recorded fixed decoupling poles do not divide the closed-loop "
            "unobservable polynomial s^2+7s+12\n"
            "  closed-loop unobservable polynomial s^2+7s+12 does not divide "
            "(fixed poles) * (input decoupling zeros)\n"
        )
        rc, out, _ = run(capsys, ["fixed-poles", system, solution])
        assert rc == 1
        assert out.endswith("INCONSISTENT with the solution file\n")


class TestWrongShape:
    """A solution whose F rows each carry one extra column is rejected."""

    @pytest.mark.parametrize("command", ["verify", "fixed-poles"])
    def test_extra_f_column(self, command, seed_1729_solutions, tmp_path, capsys):
        system, solved = seed_1729_solutions["ex2"]
        data = load_solution(solved)
        data["F"] = [row + ["1"] for row in data["F"]]
        sol = tmp_path / "ex2_wide_f.json"
        sol.write_text(dump_json(data))
        capsys.readouterr()
        for extra in ([], ["--json"]):
            rc, out, _ = run(capsys, [command, system, str(sol)] + extra)
            assert rc == 1
            assert out == "FAIL: F/G dimensions do not match the system\n"


class TestDiagonalCount:
    """A solution file must record one diagonal entry per output (three here)."""

    @pytest.mark.parametrize("count", [4, 2])
    def test_wrong_count_fails(self, count, seed_1729_solutions, tmp_path, capsys):
        system, solved = seed_1729_solutions["ex1"]
        data = load_solution(solved)
        data["diagonal"] = (data["diagonal"] + [{"num": ["1"], "den": ["5", "1"]}])[:count]
        sol = tmp_path / f"ex1_{count}_diagonal_entries.json"
        sol.write_text(dump_json(data))
        capsys.readouterr()
        for extra in ([], ["--json"]):
            rc, out, _ = run(capsys, ["verify", system, str(sol)] + extra)
            assert rc == 1
            assert out == f"FAIL: {count} diagonal entries recorded for 3 outputs\n"


class TestVerifySharesClosedLoop:
    def test_one_resolvent_of_the_full_closed_loop(self, seed_1729_solutions, monkeypatch, capsys):
        """verify forms the characteristic polynomial of A + BF once and hands it
        to both the transfer-function check and the fixed-pole check."""
        from morgan import exactalg, zeros

        system, sol = seed_1729_solutions["ex2"]
        sizes = []
        original = exactalg.resolvent

        def counted(a):
            sizes.append(a.rows)
            return original(a)

        monkeypatch.setattr(exactalg, "resolvent", counted)
        monkeypatch.setattr(zeros, "resolvent", counted)
        capsys.readouterr()
        rc, _, _ = run(capsys, ["verify", system, sol])
        assert rc == 0
        assert sizes.count(9) == 1


class TestCommandLookup:
    def test_rebound_command_is_called(self, files, monkeypatch, capsys):
        """main looks the command function up when it runs, so rebinding
        cmd_analyze after an earlier call still takes effect."""
        import morgan.cli as cli

        _, ex1, _ = files
        assert run(capsys, ["analyze", ex1])[0] == 0
        monkeypatch.setattr(cli, "cmd_analyze", lambda args: 7)
        assert run(capsys, ["analyze", ex1])[0] == 7


class TestZeroFixedPoleRecord:
    """A solution file recording the fixed poles as the zero polynomial."""

    @pytest.mark.parametrize("command", ["verify", "fixed-poles"])
    def test_empty_wolovich_falb(self, command, seed_1729_solutions, tmp_path, capsys):
        system, solved = seed_1729_solutions["ex1"]
        data = load_solution(solved)
        data["fixed_poles"]["wolovich_falb"] = []
        sol = tmp_path / "ex1_zero_fixed_poles.json"
        sol.write_text(dump_json(data))
        capsys.readouterr()
        for extra in ([], ["--json"]):
            rc, out, _ = run(capsys, [command, system, str(sol)] + extra)
            assert rc == 1
            assert out == "FAIL: recorded fixed decoupling poles are the zero polynomial\n"


class TestRecordedFixedPolesEcho:
    """fixed-poles --json prints the recorded Wolovich-Falb polynomial as the
    command parsed it: strings in lowest terms, as every other polynomial."""

    @pytest.mark.parametrize("recorded, printed", [([1], ["1"]), (["2/4"], ["1/2"])])
    def test_parsed_polynomial(self, recorded, printed, seed_1729_solutions, tmp_path, capsys):
        system, solved = seed_1729_solutions["ex1"]
        data = load_solution(solved)
        assert data["fixed_poles"]["wolovich_falb"] == ["1"]
        data["fixed_poles"]["wolovich_falb"] = recorded
        sol = tmp_path / "ex1_edited_fixed_poles.json"
        sol.write_text(dump_json(data))
        capsys.readouterr()
        rc, out, _ = run(capsys, ["fixed-poles", system, str(sol), "--json"])
        assert rc == 0
        assert json.loads(out)["wolovich_falb_recorded"] == printed


class TestUncontrollableSystem:
    """A = diag(1, 2), B = e_1, C = e_1^T: the mode s - 2 is uncontrollable.
    The pair F = [-2, 0], G = [1] gives H = 1/(s+1) with input decoupling
    zeros s - 2.  verify and fixed-poles check a given pair, which needs no
    controllability; analyze (see TestAnalyze) and solve run the search,
    which does."""

    @pytest.fixture
    def uncontrollable(self, tmp_path):
        system = tmp_path / "uncontrollable.json"
        system.write_text(dump_json({"A": [[1, 0], [0, 2]], "B": [[1], [0]], "C": [[1, 0]]}))
        sol = tmp_path / "uncontrollable_solution.json"
        sol.write_text(dump_json({
            "format": "morgan-solution/1",
            "F": [["-2", "0"]],
            "G": [["1"]],
            "diagonal": [{"num": ["1"], "den": ["1", "1"]}],
            "fixed_poles": {"input_decoupling_zeros": ["-2", "1"], "wolovich_falb": ["1"]},
        }))
        return str(system), str(sol)

    def test_verify_passes(self, uncontrollable, capsys):
        system, sol = uncontrollable
        rc, out, err = run(capsys, ["verify", system, sol])
        assert (rc, err) == (0, "") and out.startswith("PASS")
        rc, out, err = run(capsys, ["verify", system, sol, "--json"])
        assert (rc, err) == (0, "")
        data = json.loads(out)
        assert data["pass"] is True and data["input_decoupling_zeros"] == ["-2", "1"]

    def test_fixed_poles_consistent(self, uncontrollable, capsys):
        system, sol = uncontrollable
        rc, out, err = run(capsys, ["fixed-poles", system, sol])
        assert (rc, err) == (0, "") and out.endswith("consistent\n")
        rc, out, err = run(capsys, ["fixed-poles", system, sol, "--json"])
        assert (rc, err) == (0, "") and json.loads(out)["consistent"] is True

    @pytest.mark.parametrize(
        "flags", [[], ["--dz-target", "0"], ["--diag-polys", "s+1,s+2"]])
    def test_solve_needs_controllability(self, flags, uncontrollable, capsys):
        """Reported before the option and right-invertibility checks."""
        system, _ = uncontrollable
        rc, out, err = run(capsys, ["solve", system] + flags)
        assert (rc, out) == (1, "")
        assert err == "error: controllability matrix has rank 1 < n = 2\n"

    @pytest.mark.parametrize("flags", [["--dz-target", "s^^2"], ["--diag-polys", "s+1/0"]])
    def test_unparsable_option_reported_first(self, flags, uncontrollable, capsys):
        system, _ = uncontrollable
        rc, out, err = run(capsys, ["solve", system] + flags)
        assert (rc, out) == (1, "")
        assert err.startswith("error: ") and "controllability" not in err


def _edit_diagonal(data):
    data["diagonal"][0]["num"] = ["1/0"]


def _edit_fixed_poles(data):
    data["fixed_poles"]["wolovich_falb"] = ["1", "1/0"]


def _edit_string_poly(data):
    data["fixed_poles"]["input_decoupling_zeros"] = "12"


class TestMalformedSolutionFile:
    """Malformed solution files end in `error: ...` and exit 1, not a traceback."""

    @pytest.mark.parametrize("command", ["verify", "fixed-poles"])
    @pytest.mark.parametrize(
        "edit, message",
        [
            (_edit_fixed_poles, "error: bad rational entry '1/0'"),
            (_edit_string_poly, "error: input_decoupling_zeros must be an array"),
        ],
    )
    def test_bad_polynomial(self, command, edit, message, seed_1729_solutions, tmp_path, capsys):
        system, solved = seed_1729_solutions["ex1"]
        data = load_solution(solved)
        edit(data)
        sol = tmp_path / "ex1_bad_polynomial.json"
        sol.write_text(dump_json(data))
        capsys.readouterr()
        for extra in ([], ["--json"]):
            rc, out, err = run(capsys, [command, system, str(sol)] + extra)
            assert (rc, out) == (1, "")
            assert err.startswith(message)

    def test_bad_diagonal_coefficient(self, seed_1729_solutions, tmp_path, capsys):
        system, solved = seed_1729_solutions["ex1"]
        data = load_solution(solved)
        _edit_diagonal(data)
        sol = tmp_path / "ex1_bad_diagonal.json"
        sol.write_text(dump_json(data))
        capsys.readouterr()
        for extra in ([], ["--json"]):
            rc, out, err = run(capsys, ["verify", system, str(sol)] + extra)
            assert (rc, out) == (1, "")
            assert err.startswith("error: bad rational entry '1/0'")

    @pytest.mark.parametrize("command", ["verify", "fixed-poles"])
    def test_truncated_file(self, command, seed_1729_solutions, tmp_path, capsys):
        """A cut-off solution file is reported like a cut-off system file."""
        system, solved = seed_1729_solutions["ex1"]
        sol = tmp_path / "truncated.json"
        sol.write_bytes(Path(solved).read_bytes()[:40])
        capsys.readouterr()
        for extra in ([], ["--json"]):
            rc, out, err = run(capsys, [command, system, str(sol)] + extra)
            assert (rc, out) == (1, "")
            assert err.startswith(f"error: {sol}: not valid JSON (")

    def test_null_diagonal(self, seed_1729_solutions, tmp_path, capsys):
        system, solved = seed_1729_solutions["ex1"]
        data = load_solution(solved)
        data["diagonal"] = None
        sol = tmp_path / "null_diagonal.json"
        sol.write_text(dump_json(data))
        capsys.readouterr()
        for extra in ([], ["--json"]):
            rc, out, err = run(capsys, ["verify", system, str(sol)] + extra)
            assert (rc, out) == (1, "")
            assert err.startswith("error: diagonal must be an array")

    @pytest.mark.parametrize(
        "edit, message, commands",
        [
            (lambda d: d.update(fixed_poles=None), "error: fixed_poles must be an object\n",
             ["verify", "fixed-poles"]),
            (lambda d: d["fixed_poles"].pop("wolovich_falb"),
             "error: wolovich_falb must be an array of coefficients\n", ["verify", "fixed-poles"]),
            (lambda d: d["fixed_poles"].pop("input_decoupling_zeros"),
             "error: input_decoupling_zeros must be an array of coefficients\n",
             ["verify", "fixed-poles"]),
            (lambda d: d.pop("F"), "error: F must be a nonempty array of arrays\n",
             ["verify", "fixed-poles"]),
            (lambda d: d["diagonal"].__setitem__(0, 3),
             "error: diagonal must be an array of {num, den} objects\n", ["verify"]),
            (lambda d: d["diagonal"][0].pop("num"),
             "error: diagonal num must be an array of coefficients\n", ["verify"]),
            (lambda d: d["diagonal"][1].pop("den"),
             "error: diagonal den must be an array of coefficients\n", ["verify"]),
        ],
        ids=["null-fixed-poles", "no-wolovich-falb", "no-input-dz", "no-F",
             "int-diagonal-record", "no-num", "no-den"],
    )
    def test_missing_or_mistyped_key_is_named(
            self, edit, message, commands, seed_1729_solutions, tmp_path, capsys):
        system, solved = seed_1729_solutions["ex1"]
        data = load_solution(solved)
        edit(data)
        sol = tmp_path / "edited.json"
        sol.write_text(dump_json(data))
        capsys.readouterr()
        for command in commands:
            for extra in ([], ["--json"]):
                rc, out, err = run(capsys, [command, system, str(sol)] + extra)
                assert (rc, out, err) == (1, "", message)

    @pytest.mark.parametrize("command", ["verify", "fixed-poles"])
    @pytest.mark.parametrize("payload", ["[]", '"x"', "3"])
    def test_not_an_object(self, command, payload, seed_1729_solutions, tmp_path, capsys):
        system, _ = seed_1729_solutions["ex1"]
        sol = tmp_path / "not_an_object.json"
        sol.write_text(payload)
        capsys.readouterr()
        for extra in ([], ["--json"]):
            rc, out, err = run(capsys, [command, system, str(sol)] + extra)
            assert (rc, out) == (1, "")
            assert err == f"error: {sol}: a solution file must hold a JSON object\n"
