"""Command-line surface: files, flags, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

import golden_data as pd
from morgan.cli import main
from morgan.fileio import dump_json, load_solution, matrix_to_json, poly_to_json
from morgan.exactalg import parse_poly


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

    def test_jobs_invariance(self, files, capsys):
        _, ex1, _ = files
        rc1, out1, _ = run(capsys, ["solve", ex1, "--json", "--seed", "7", "--jobs", "1"])
        rc2, out2, _ = run(capsys, ["solve", ex1, "--json", "--seed", "7", "--jobs", "4"])
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_seed_changes_output(self, files, capsys):
        _, ex1, _ = files
        _, out1, _ = run(capsys, ["solve", ex1, "--json", "--seed", "7"])
        _, out2, _ = run(capsys, ["solve", ex1, "--json", "--seed", "8"])
        d1, d2 = json.loads(out1), json.loads(out2)
        assert d1["ci_tuple"] == d2["ci_tuple"]  # search decisions are stable
        assert d1["seed"] != d2["seed"]

    def test_no_solution_exit_2(self, files, capsys):
        d, _, _ = files
        path = d / "norightinv.json"
        path.write_text(
            dump_json(
                {
                    "A": [[0, 1, 0], [0, 0, 1], [1, 2, 3]],
                    "B": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                    "C": [[1, 0, 0], [0, 0, 0]],
                }
            )
        )
        rc, out, _ = run(capsys, ["solve", str(path)])
        assert rc == 2
        assert "NO SOLUTION" in out

    def test_dz_target(self, files, capsys):
        d, _, ex2 = files
        out_path = str(d / "sol2dz.json")
        rc, _, _ = run(capsys, ["solve", ex2, "--dz-target", "s^2+3s+2", "--out", out_path])
        assert rc == 0
        data = load_solution(out_path)
        assert data["fixed_poles"]["input_decoupling_zeros"] == ["2", "3", "1"]
        rc, out, _ = run(capsys, ["verify", ex2, out_path])
        assert rc == 0

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


class TestDzTargetVerifies:
    """At these seeds the first numeric Q_B left a common factor in a row of
    C_r Q_B S~(s); that factor became an unobservable closed-loop mode the
    fixed-pole record missed, and verify rejected the file."""

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
