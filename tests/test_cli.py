import csv
import io
import math
import json
import subprocess
import sys
import types

import numpy as np
import pytest

from wignerlab import montecarlo
from wignerlab.cli import CSV_COLUMNS, load_state_file, main
from wignerlab.oracles import edgeworth_probability, two_block_exact

LIMIT = 0.15865525393145705
BETA = ["--n", "3", "--two-block", "1"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestKernelCommand:
    def test_pretty_output(self, capsys):
        code, out, _ = run_cli(capsys, "kernel", "--n", "2", "--two-block", "1")
        assert code == 0
        assert "two-block k=1" in out
        assert "1.3660254037844386" in out

    def test_derived_family_values(self, capsys):
        code, out, _ = run_cli(capsys, "kernel", "--n", "4", "--two-block", "2")
        assert code == 0
        assert "1.218245836551854" in out

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "kernel", "--n", "3", "--random", "4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["dimension"] == 3
        assert abs(payload["residuals"]["trace"]) < 1e-10
        assert sum(m for _, m in payload["eigenvalues"]) == 3
        assert set(payload) == {"dimension", "label", "eigenvalues", "residuals", "predicted"}
        spectrum = montecarlo.KernelSelector.random(4).build(3)
        assert payload["predicted"] == edgeworth_probability(spectrum)

    # exact output of one command per kernel family, whatever form a spectrum is stored in
    PINNED = {
        ("--two-block", "2", "--n", "5"): {
            "dimension": 5,
            "label": "two-block k=2",
            "eigenvalues": [[1.0, 3], [-1.0, 2]],
            "residuals": {"trace": 0.0, "square_trace": 0.0},
            "predicted": 0.15359616587072558,
        },
        ("--random", "7", "--n", "7"): {
            "dimension": 7,
            "label": "random s=7",
            "eigenvalues": [[1.207372912520906, 1], [0.7676922345375172, 1],
                            [0.5629456229766747, 1], [0.500896060743155, 1],
                            [0.43225090732765126, 1], [-0.47896023497794865, 1],
                            [-1.9921975031279557, 1]],
            "residuals": {"trace": 0.0, "square_trace": 0.0},
            "predicted": 0.15363271172305096,
        },
    }

    @pytest.mark.parametrize("family", list(PINNED))
    def test_output_pinned(self, capsys, family):
        expected = self.PINNED[family]
        code, out, _ = run_cli(capsys, "kernel", *family, "--format", "json")
        assert code == 0
        assert out == json.dumps(expected, indent=2) + "\n"
        code, out, _ = run_cli(capsys, "kernel", *family, "--format", "pretty")
        assert code == 0
        assert out.splitlines() == [
            f"dimension      {expected['dimension']}",
            f"label          {expected['label']}",
            "eigenvalues    (value x multiplicity)",
            *(f"    {v!r} x {m}" for v, m in expected["eigenvalues"]),
            "residuals      trace 0.000e+00, square-trace 0.000e+00",
            f"predicted      {expected['predicted']!r}",
        ]

    def test_dimension_validation(self, capsys):
        code, _, err = run_cli(capsys, "kernel", "--n", "1", "--two-block", "1")
        assert code == 2
        assert "N must be" in err

    def test_family_flags_required(self, capsys):
        code, _, _ = run_cli(capsys, "kernel", "--n", "2")
        assert code == 2


class TestEstimateCommand:
    def test_csv_schema(self, capsys):
        code, out, _ = run_cli(capsys, "estimate", "--n", "2", "--two-block", "1",
                               "--trials", "20000", "--seed", "7")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == CSV_COLUMNS
        (row,) = rows
        rec = dict(zip(header, row))
        assert rec["schema_version"] == "1"
        assert rec["N"] == "2"
        assert rec["kernel_label"] == "two-block k=1"
        assert rec["k"] == "1"
        assert rec["method"] == "fast-gamma"
        assert rec["trials"] == "20000"
        assert rec["oracle_value"] == ""
        assert rec["seed"] == "7"
        assert int(rec["negatives"]) == round(float(rec["p_hat"]) * 20000)
        assert 0.10 < float(rec["p_hat"]) < 0.13

    def test_repeat_runs_byte_identical_except_wall_time(self, capsys):
        argv = ("estimate", "--n", "2", "--two-block", "1", "--trials", "20000", "--seed", "7")
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        wall = CSV_COLUMNS.index("wall_time_s")
        _, rows1 = parse_csv(out1)
        _, rows2 = parse_csv(out2)
        assert rows1[0][:wall] == rows2[0][:wall]

    def test_oracle_column(self, capsys):
        code, out, _ = run_cli(capsys, "estimate", "--n", "2", "--two-block", "1",
                               "--trials", "4096", "--seed", "1", "--oracle")
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0][CSV_COLUMNS.index("oracle_value")]) == pytest.approx(
            0.11509982054024949, abs=1e-12)

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "estimate", "--n", "3", "--random", "11",
                               "--trials", "4096", "--seed", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == set(CSV_COLUMNS)
        assert payload["k"] == "random"
        assert payload["kernel_label"] == "random s=11"
        assert payload["oracle_value"] is None

    def test_trials_validation(self, capsys):
        code, _, err = run_cli(capsys, "estimate", "--n", "2", "--two-block", "1",
                               "--trials", "0", "--seed", "1")
        assert code == 2
        assert "trials" in err

    def test_bad_family_parameters(self, capsys):
        code, _, _ = run_cli(capsys, "estimate", "--n", "2", "--two-block", "2",
                             "--trials", "10", "--seed", "1")
        assert code == 2


class TestSweepCommand:
    def test_grid_skips_invalid_combinations(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--n", "2,4", "--kernels", "k=1,k=3",
                               "--trials", "2048", "--seed", "5")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == CSV_COLUMNS
        assert [(r[1], r[3]) for r in rows] == [("2", "1"), ("4", "1"), ("4", "3")]

    def test_empty_dimension_list(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--n", "", "--kernels", "k=1",
                               "--trials", "16", "--seed", "0")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == CSV_COLUMNS
        assert rows == []

    def test_bare_random_token_gets_derived_seed(self, capsys):
        argv = ("sweep", "--n", "3", "--kernels", "random", "--trials", "1024", "--seed", "6")
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        _, rows1 = parse_csv(out1)
        _, rows2 = parse_csv(out2)
        assert rows1[0][2].startswith("random s=")
        assert rows1[0][2] == rows2[0][2]  # derived from the master seed, so stable

    def test_oracle_column_covers_random_kernels(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--n", "3", "--kernels", "k=1,random=11",
                               "--trials", "1024", "--seed", "2", "--oracle")
        assert code == 0
        _, rows = parse_csv(out)
        col = CSV_COLUMNS.index("oracle_value")
        for row in rows:
            assert 0.0 < float(row[col]) < 1.0

    def test_pretty_blocks(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--n", "2,3", "--kernels", "k=1",
                               "--trials", "256", "--seed", "1", "--format", "pretty")
        assert code == 0
        blocks = out.rstrip("\n").split("\n\n")
        assert len(blocks) == 2
        for block, n in zip(blocks, ("2", "3")):
            fields = dict(line.split(None, 1) for line in block.split("\n"))
            assert list(fields) == [c for c in CSV_COLUMNS if c != "oracle_value"]
            assert fields["N"] == n
            assert fields["kernel_label"] == "two-block k=1"

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, out, _ = run_cli(capsys, "sweep", "--n", "2", "--kernels", "k=1",
                               "--trials", "512", "--seed", "1", "--out", str(target))
        assert code == 0
        assert out == ""
        header, rows = parse_csv(target.read_text())
        assert header == CSV_COLUMNS and len(rows) == 1

    def test_unwritable_out_path(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "rows.csv"
        code, _, _ = run_cli(capsys, "sweep", "--n", "2", "--kernels", "k=1",
                             "--trials", "16", "--seed", "1", "--out", str(target))
        assert code == 3

    @pytest.mark.parametrize("z", ["inf", "0", "nan"])
    def test_z_rejected_before_sampling(self, capsys, z):
        code, out, err = run_cli(capsys, "sweep", "--n", "2", "--kernels", "k=1",
                                 "--trials", "100", "--z", z)
        assert code == 2 and out == ""
        assert "z must be" in err and "sweep point" not in err

    @pytest.mark.parametrize("argv,fragment", [
        (["--n", "2,x", "--kernels", "k=1"], "cannot parse dimension list '2,x'"),
        (["--kernels", "k=1"], "required: --n"),
        (["--n", "2", "--kernels", "k=abc"], "cannot parse kernel token 'k=abc'"),
        (["--n", "2", "--kernels", "random", "--seed", "-1"],
         "seed must be an integer in [0, 18446744073709551615], got -1"),
        (["--n", "2", "--kernels", "random=-5"],
         "seed must be an integer in [0, 18446744073709551615], got -5"),
        (["--n", "2", "--kernels", "k=0"], "k must be an integer >= 1"),
    ], ids=["dimension-list", "no-dimensions", "k-not-int", "random-bad-master-seed",
            "random-bad-seed", "k-zero"])
    def test_unusable_arguments(self, capsys, argv, fragment):
        code, out, err = run_cli(capsys, "sweep", *argv, "--trials", "10")
        assert code == 2 and out == ""
        assert fragment in err

    def test_defaults(self, capsys, monkeypatch):
        """Left out, --seed, --method, --workers and --z take their documented defaults:
        with the clock stopped, every output format is the same byte for byte."""
        monkeypatch.setattr(montecarlo, "time", types.SimpleNamespace(perf_counter=lambda: 0.0))
        argv = ("sweep", "--n", "2,3", "--kernels", "k=1,random", "--trials", "1000")
        explicit = ("--seed", "0", "--method", "fast-gamma", "--workers", "1", "--z", "1.96")
        for fmt in ("csv", "json", "pretty"):
            bare = run_cli(capsys, *argv, "--format", fmt)
            assert bare[0] == 0 and bare[1].count("\n") > 4
            assert bare == run_cli(capsys, *argv, *explicit, "--format", fmt)

    def test_derived_seeds_pinned(self, capsys):
        """Sweep point seeds and the seed of a bare random token come from the master seed."""
        code, out, _ = run_cli(capsys, "sweep", "--n", "2,3", "--kernels", "k=1,random",
                               "--trials", "1000", "--seed", "1")
        assert code == 0
        label = "random s=4371855513838412876"
        assert [(r[1], r[2], r[11]) for r in parse_csv(out)[1]] == [
            ("2", "two-block k=1", "7434755675892716031"), ("2", label, "77803131892610477"),
            ("3", "two-block k=1", "15529898885419721899"), ("3", label, "17579876663566485232")]

    def test_bad_kernel_token(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--n", "2", "--kernels", "q=3",
                               "--trials", "16", "--seed", "1")
        assert code == 2
        assert "kernel token" in err


class TestOracleCommand:
    def test_limit(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--limit")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["value", "method", "estimated_abs_error"]
        assert float(rows[0][0]) == pytest.approx(LIMIT, abs=1e-12)
        assert rows[0][1] == "limit"

    def test_clt(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--clt", "2.0")
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0][0]) == pytest.approx(LIMIT, abs=1e-7)
        assert rows[0][1] == "clt-quadrature"

    def test_two_block(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--n", "2", "--two-block", "1")
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0][0]) == pytest.approx(0.11509982054024949, abs=1e-12)
        assert rows[0][1] == "beta-closed-form"

    def test_two_block_json(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--n", "8", "--two-block", "2",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload == {"value": pytest.approx(0.15622696067816964988, abs=5e-13),
                           "method": "beta-closed-form",
                           "estimated_abs_error": two_block_exact(8, 2).estimated_abs_error}

    def test_json_carries_diagnostics(self, capsys):
        """JSON prints what the quadrature did under its own key; CSV keeps its three
        columns.  A random N = 512 kernel's first scan sums the cumulant series."""
        args = ("oracle", "--n", "512", "--random", "7")
        code, out, _ = run_cli(capsys, *args, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"value", "method", "estimated_abs_error", "diagnostics"}
        d = payload["diagnostics"]
        assert d["series_terms"] > 0 and "rounds" not in d
        assert math.fsum(d[key] for key in ("aliasing", "truncation", "roundoff", "series")) \
            == pytest.approx(payload["estimated_abs_error"], rel=1e-15)
        code, out, _ = run_cli(capsys, *args)
        header, rows = parse_csv(out)
        assert header == ["value", "method", "estimated_abs_error"]
        assert float(rows[0][0]) == payload["value"]

    def test_cf_flag_switches_method(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--n", "2", "--two-block", "1", "--cf")
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0][1] == "cf-inversion"
        assert float(rows[0][0]) == pytest.approx(0.11509982054024949, abs=1e-8)

    @pytest.mark.parametrize("route,tol,code", [
        (BETA, "1e-30", 3), (BETA + ["--cf"], "1e-30", 3), (BETA, "1e-12", 0), (BETA, "0", 2),
        (BETA, "nan", 2), (["--clt", "2.0"], "1e-30", 3), (["--limit"], "1e-30", 3),
        (["--limit"], "0", 2), (["--n", "8192", "--two-block", "8191"], "1e-9", 0),
    ], ids=["beta-tight", "cf-tight", "beta-met", "zero", "nan", "clt-tight", "limit-tight",
            "limit-zero", "beta-loose"])
    def test_tol_enforced_on_every_route(self, capsys, route, tol, code):
        """Every route's error bound, fixed or computed, must meet --tol."""
        got, out, err = run_cli(capsys, "oracle", *route, "--tol", tol)
        assert got == code
        if code == 0:
            assert parse_csv(out)[1][0][1] == "beta-closed-form"
        else:
            assert out == "" and "tol" in err

    @pytest.mark.parametrize("route,tol", [(["--two-block", "2", "--cf"], "4"),
                                           (["--random", "3"], "10")], ids=["cf-4", "random-10"])
    def test_loose_tol_on_cf(self, capsys, route, tol):
        """A tol of 4 or more once broke the CF first-scan length."""
        code, out, err = run_cli(capsys, "oracle", "--n", "5", *route, "--tol", tol)
        assert code == 0 and err == ""
        assert parse_csv(out)[1][0][1] == "cf-inversion"

    def test_random_kernel_uses_cf(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--n", "3", "--random", "11")
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0][1] == "cf-inversion"
        assert 0.0 < float(rows[0][0]) < 1.0

    def test_exactly_one_mode(self, capsys):
        assert run_cli(capsys, "oracle", "--limit", "--clt", "1.0")[0] == 2
        assert run_cli(capsys, "oracle")[0] == 2
        assert run_cli(capsys, "oracle", "--two-block", "1")[0] == 2  # missing --n
        for argv in (["--limit", "--n", "5", "--cf"], ["--clt", "1", "--cf", "--n", "3"]):
            code, out, err = run_cli(capsys, "oracle", *argv)
            assert (code, out) == (2, "") and "kernel family" in err

    def test_pretty_format(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--limit", "--format", "pretty")
        assert code == 0
        assert "value" in out and "0.158655" in out


class TestStateCommand:
    def test_maximally_mixed_is_never_negative(self, capsys):
        code, out, _ = run_cli(capsys, "state", "--n", "4", "--maximally-mixed",
                               "--two-block", "1", "--trials", "4096", "--seed", "3")
        assert code == 0
        _, rows = parse_csv(out)
        rec = dict(zip(CSV_COLUMNS, rows[0]))
        assert rec["p_hat"] == "0.0"
        assert rec["method"] == "haar-phase-point"

    def test_pure_basis_state(self, capsys):
        code, out, _ = run_cli(capsys, "state", "--n", "2", "--pure-basis", "1",
                               "--two-block", "1", "--trials", "20000", "--seed", "9")
        assert code == 0
        _, rows = parse_csv(out)
        assert 0.19 < float(rows[0][CSV_COLUMNS.index("p_hat")]) < 0.23

    def test_pure_basis_range_checked(self, capsys):
        code, _, err = run_cli(capsys, "state", "--n", "2", "--pure-basis", "3",
                               "--two-block", "1", "--trials", "16", "--seed", "0")
        assert code == 2
        assert "basis index" in err

    def test_state_file_round_trip(self, capsys, tmp_path):
        rho = np.array([[0.7, 0.1 + 0.05j], [0.1 - 0.05j, 0.3]])
        path = tmp_path / "rho.txt"
        lines = ["2"] + [f"{float(v.real)!r} {float(v.imag)!r}" for v in rho.reshape(-1)]
        path.write_text("\n".join(lines) + "\n")
        assert np.allclose(load_state_file(str(path)), rho)
        code, out, _ = run_cli(capsys, "state", "--n", "2", "--state-file", str(path),
                               "--two-block", "1", "--trials", "4096", "--seed", "4")
        assert code == 0
        _, rows = parse_csv(out)
        assert 0.0 <= float(rows[0][CSV_COLUMNS.index("p_hat")]) <= 1.0

    @pytest.mark.parametrize("content,fragment", [
        ("2\n1.0 0.0\n0.0 0.0\n0.0 0.0\n1.0 0.0\n", "trace"),
        ("2\n0.5 0.0\n0.1 0.0\n0.3 0.0\n0.5 0.0\n", "Hermitian"),
        ("2\n1.2 0.0\n0.0 0.0\n0.0 0.0\n-0.2 0.0\n", "eigenvalue"),
        ("2\n0.5 0.0\n0.5 0.0\n", "entry lines"),
        ("2\nfish 0.0\n0.0 0.0\n0.0 0.0\n1.0 0.0\n", "non-numeric"),
        ("", "empty"),
        ("two\n", "first line must be the dimension"),
        ("0\n", "dimension must be >= 1"),
        ("2\n0.5 0.0 0.0\n0.0 0.0\n0.0 0.0\n0.5 0.0\n", "expected 're im'"),
    ])
    def test_malformed_state_files(self, capsys, tmp_path, content, fragment):
        path = tmp_path / "bad.txt"
        path.write_text(content)
        code, _, err = run_cli(capsys, "state", "--n", "2", "--state-file", str(path),
                               "--two-block", "1", "--trials", "16", "--seed", "0")
        assert code == 2
        assert fragment in err

    @pytest.mark.parametrize("entry", ["nan 0.0", "0.5 nan", "inf 0.0"])
    def test_non_finite_state_file_entry(self, capsys, tmp_path, entry):
        path = tmp_path / "rho.txt"
        path.write_text(f"2\n{entry}\n0.0 0.0\n0.0 0.0\n0.5 0.0\n")
        code, out, err = run_cli(capsys, "state", "--n", "2", "--state-file", str(path),
                                 "--two-block", "1", "--trials", "16", "--seed", "0")
        assert code == 2
        assert out == ""
        assert f"state file {path}: " in err and "non-finite" in err

    def test_state_file_dimension_mismatch(self, capsys, tmp_path):
        path = tmp_path / "rho.txt"
        path.write_text("2\n0.5 0.0\n0.0 0.0\n0.0 0.0\n0.5 0.0\n")
        code, _, err = run_cli(capsys, "state", "--n", "3", "--state-file", str(path),
                               "--two-block", "1", "--trials", "16", "--seed", "0")
        assert code == 2
        assert "does not match" in err

    def test_missing_state_file(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "state", "--n", "2", "--state-file",
                             str(tmp_path / "ghost.txt"), "--two-block", "1",
                             "--trials", "16", "--seed", "0")
        assert code == 3


class TestWorkersFlag:
    @pytest.mark.parametrize("command", [
        ("estimate", "--n", "2", "--two-block", "1"),
        ("state", "--n", "2", "--pure-basis", "1", "--two-block", "1"),
    ], ids=["estimate", "state"])
    def test_workers_flag_keeps_counts(self, capsys, monkeypatch, command):
        """--workers is the one worker setting: it defaults to 1, the environment
        does not set it, and it never changes a count."""
        monkeypatch.setenv("WIGNERLAB_WORKERS", "0")
        argv = (*command, "--trials", "70000", "--seed", "8")
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv, "--workers", "2")
        assert code1 == code2 == 0
        wall = CSV_COLUMNS.index("wall_time_s")
        assert parse_csv(out1)[1][0][:wall] == parse_csv(out2)[1][0][:wall]


class TestEntryPoints:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_missing_subcommand(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_module_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "wignerlab", "oracle", "--limit"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "0.158655" in proc.stdout
