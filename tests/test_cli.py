"""CLI behavior: flags, config files, reports, exit codes, determinism."""

import contextlib
import dataclasses
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schattenframes.campaigns import _SETTINGS, CampaignConfig, run_norm_estimate
from schattenframes.cli import _COMMANDS, main
from schattenframes.serialization import write_matrix

FAST = ["--dim", "3", "--trials", "4", "--p-grid", "1,2,3"]


def read_report(path):
    return json.loads((path / "report.json").read_text())


class TestVerifyTheorems:
    def test_smoke_dim_one(self, tmp_path):
        out = tmp_path / "r"
        code = main(["verify-theorems", "--dim", "1", "--trials", "2", "--out", str(out)])
        assert code == 0
        report = read_report(out)
        assert report["summary"]["failed"] == 0
        assert report["schema_version"] == 1

    def test_fast_run_writes_csvs(self, tmp_path):
        out = tmp_path / "r"
        assert main(["verify-theorems", *FAST, "--out", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert "report.json" in names
        assert "norm_sum_sup.csv" in names
        assert "synthesis_bounds.csv" in names

    def test_determinism_modulo_wall_time(self, tmp_path):
        # identical config, same output dir: only the wall-time field differs
        out = tmp_path / "r"
        args = ["verify-theorems", *FAST, "--seed", "5", "--out", str(out)]
        main(args)
        first = read_report(out)
        main(args)
        second = read_report(out)
        first.pop("wall_time_s")
        second.pop("wall_time_s")
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_failed_check_gives_exit_one(self, tmp_path, monkeypatch):
        import schattenframes.cli as cli_mod
        from schattenframes.campaigns import CampaignReport

        def fake_run(config):
            return CampaignReport(
                config=dataclasses.asdict(config),
                records=[{"tag": "forced", "passed": False}],
                wall_time_s=0.0,
            )

        monkeypatch.setitem(cli_mod._COMMANDS, "verify-theorems", fake_run)
        assert main(["verify-theorems", "--out", str(tmp_path / "r")]) == 1

    def test_seed_changes_content(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["verify-theorems", *FAST, "--seed", "1", "--out", str(out1)])
        main(["verify-theorems", *FAST, "--seed", "2", "--out", str(out2)])
        r1, r2 = read_report(out1), read_report(out2)
        assert r1["records"] != r2["records"]


class TestConfigFile:
    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dim": 2, "trials": 3, "p-grid": [1.0, 2.0], "seed": 9}))
        out = tmp_path / "r"
        code = main(
            ["verify-theorems", "--config", str(cfg), "--dim", "4", "--out", str(out)]
        )
        assert code == 0
        report = read_report(out)
        assert report["config"]["dim"] == 4  # flag wins
        assert report["config"]["seed"] == 9  # file value survives

    def test_malformed_config_is_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["verify-theorems", "--config", str(cfg)]) == 2


# a 2 x 2 matrix whose ||T||_p^p at p = 0.5 is 2e154, with no representable p-th root
HUGE = {"rows": 2, "cols": 2, "re": [1e308, 0.0, 0.0, 1e308], "im": [0.0] * 4}
ESTIMATE_HUGE = ["norm-estimate", "huge.json", "--p", "0.5"]
NO_ROOT = "||T||_p^p = 2e+154 at p = 0.5 has no representable p-th root"
# a 2 x 2 matrix of 1e308s, whose largest singular value 2e308 overflows
OVERFLOW = {"rows": 2, "cols": 2, "re": [1e308] * 4, "im": [0.0] * 4}
MATRIX_FILES = {"huge.json": HUGE, "overflow.json": OVERFLOW}

# (verify-theorems flags, or a bergman or norm-estimate argv, config file contents
# or None, text the error must name)
INVALID_INPUTS = {
    "p-grid-nan": (["--p-grid", "nan,1"], None, "p_grid"),
    "p-grid-inf": (["--p-grid", "inf"], None, "p_grid"),
    "p-grid-string": ([], {"p-grid": "1,2"}, "p_grid"),
    "p-grid-word": (["--p-grid", "1,abc"], None, "p-grid must be comma-separated numbers, got '1,abc'"),
    "unknown-key": ([], {"dimm": 3}, "dimm"),
    "string-dim": ([], {"dim": "3"}, "dim"),
    "top-level-list": ([], [3], "JSON object"),
    "rmax-nan": (["bergman", "--rmax", "nan"], None, "rmax must be a number in (0, 1), got nan"),
    "rmax-inf": (["bergman", "--rmax", "inf"], None, "rmax must be a number in (0, 1), got inf"),
    "rmax-zero": (["bergman", "--rmax", "0"], None, "rmax must be a number in (0, 1), got 0.0"),
    "rmax-one": (["bergman", "--rmax", "1"], None, "rmax must be a number in (0, 1), got 1.0"),
    "rmax-string": (["bergman"], {"rmax": "0.5"}, "rmax must be a number in (0, 1), got '0.5'"),
    "float-seed": ([], {"seed": 1.5}, "seed"),
    "bool-seed": ([], {"seed": True}, "seed"),
    "negative-seed": (["--seed", "-3"], None, "seed must be an integer >= 0, got -3"),
    "string-trials": ([], {"trials": "10"}, "trials"),
    "float-trials": ([], {"trials": 10.0}, "trials"),
    # counts past numpy's index range, which reached the trial frames as an OverflowError
    "huge-trials-flag": (["--trials", str(10**20)], None, "error: trials must be at most"),
    "huge-trials-config": ([], {"trials": 10**400}, "error: trials must be at most"),
    # the certificate tolerance is CERTIFICATE_TOL, which no setting replaces
    "tolerances-key": (
        [],
        {"tolerances": {"certificate": 1e-3}},
        "has keys ['tolerances'] that verify-theorems does not read",
    ),
    # integers below inf that have no float
    "p-grid-huge-int": ([], {"p_grid": [10**400]}, "p_grid"),
    "output-dir-number": ([], {"output_dir": 5}, "output_dir"),
    "root-overflow-exact": (ESTIMATE_HUGE, None, NO_ROOT),
    "root-overflow-ensemble": ([*ESTIMATE_HUGE, "--strategy", "frame_ensemble"], None, NO_ROOT),
    "singular-value-overflow": (
        ["norm-estimate", "overflow.json", "--p", "2"],
        None,
        "error: s_1 overflows at the scale of T: entries reach 1.000e+308",
    ),
}


# matrix-file entries that override a valid 2 x 2 matrix, and the error naming key and value;
# the one-row payload makes 1.5 and true read as 1 if truncated
ONE_ROW = {"re": [1.0, 0.0], "im": [0.0, 0.0]}
INVALID_MATRICES = {
    "float-rows": ({"rows": 1.5, **ONE_ROW}, "rows must be an integer >= 1, got 1.5"),
    "bool-rows": ({"rows": True, **ONE_ROW}, "rows must be an integer >= 1, got True"),
    "negative-shape": ({"rows": -1, "cols": -1}, "rows must be an integer >= 1, got -1"),
    "zero-cols": ({"cols": 0}, "cols must be an integer >= 1, got 0"),
    "string-cols": ({"cols": "2"}, "cols must be an integer >= 1, got '2'"),
}


class TestInvalidInput:
    @pytest.mark.parametrize("entries,named", INVALID_MATRICES.values(), ids=INVALID_MATRICES)
    def test_matrix_file_shape_is_usage_error_naming_the_key(
        self, tmp_path, monkeypatch, capsys, entries, named
    ):
        monkeypatch.chdir(tmp_path)  # the default report directory is relative
        matrix = {"rows": 2, "cols": 2, "re": [1.0, 0.0, 0.0, 1.0], "im": [0.0] * 4}
        Path("m.json").write_text(json.dumps({**matrix, **entries}))
        assert main(["norm-estimate", "m.json", "--p", "2"]) == 2
        assert named in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json"]

    @pytest.mark.parametrize("flags,config,named", INVALID_INPUTS.values(), ids=INVALID_INPUTS)
    def test_is_usage_error_naming_the_input(
        self, tmp_path, monkeypatch, capsys, flags, config, named
    ):
        monkeypatch.chdir(tmp_path)  # the default report directory is relative
        args, inputs = ["verify-theorems", *flags], []
        if flags[:1] in (["bergman"], ["norm-estimate"]):
            args = list(flags)
        if flags[:1] == ["norm-estimate"]:
            inputs.append(flags[1])
            Path(flags[1]).write_text(json.dumps(MATRIX_FILES[flags[1]]))
        if config is not None:
            Path("cfg.json").write_text(json.dumps(config))
            args += ["--config", "cfg.json"]
            inputs.append("cfg.json")
        assert main(args) == 2
        assert named in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(inputs)

    @pytest.mark.parametrize("nested_file", ["matrix", "config"])
    def test_deeply_nested_json_is_usage_error_naming_the_file(self, tmp_path, capsys, nested_file):
        nested, matrix = tmp_path / "nested.json", tmp_path / "m.json"
        nested.write_text("[" * 100_000 + "]" * 100_000)  # json.dumps cannot build it
        write_matrix(matrix, np.eye(2))
        args = ["norm-estimate", str(matrix), "--p", "2", "--out", str(tmp_path / "r")]
        if nested_file == "matrix":
            args[1] = str(nested)
        else:
            args += ["--config", str(nested)]
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: {nested} nests JSON too deeply to decode\n"
        assert not (tmp_path / "r").exists()

    def test_out_naming_a_file_is_io_error(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        assert main(["verify-theorems", *FAST, "--out", str(taken)]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and str(taken) in err
        assert out == "" and taken.read_text() == "kept\n"


# Front-door inputs: each parameter is a flag, a config-file entry or absent.
P_ENTRIES = st.one_of(
    st.floats(0.25, 5.0), st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0.0, "x", "2"])
)
RMAX = st.sampled_from([-0.5, 0.0, 0.3, 0.9, 0.995, 1.0, 1.5, math.nan, math.inf])
EXTRAS = st.sampled_from([{}, {}, {"dimm": 3}, {"tolerances": {"certificate": 1e-6}}])


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    command=st.sampled_from(["verify-theorems", "counterexamples", "bergman"]),
    values=st.fixed_dictionaries(
        {"dim": st.integers(1, 3), "trials": st.integers(1, 3)},
        optional={"p_grid": st.lists(P_ENTRIES, min_size=1, max_size=3), "rmax": RMAX},
    ),
    in_file=st.sets(st.sampled_from(["dim", "trials", "p_grid", "rmax"])),
    extra=EXTRAS,
)
def test_front_door_exits_0_1_or_2_without_traceback(command, values, in_file, extra):
    """Any mix of flags and config-file entries of the command's settings ends
    in exit 0, 1 or 2, never a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        args, config = [command, "--out", str(Path(tmp) / "r")], dict(extra)
        for key, value in values.items():
            if key not in _SETTINGS[command]:
                continue
            if key in in_file:
                config[key] = value
            elif key == "p_grid":
                args.append("--p-grid=" + ",".join(str(v) for v in value))
            else:
                args += [f"--{key}", str(value)]
        if config:
            (Path(tmp) / "cfg.json").write_text(json.dumps(config))
            args += ["--config", str(Path(tmp) / "cfg.json")]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(args)
            except SystemExit as exc:  # argparse rejects a flag
                code = exc.code
    assert code in (0, 1, 2), (args, config, err.getvalue())
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code == 2:
        assert err.getvalue().startswith(("error: ", "usage: ")), err.getvalue()


def run_quietly(argv):
    """Exit code, stderr and the warnings of one CLI request."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
    return code, err.getvalue(), [str(w.message) for w in caught]


class TestExtremeP:
    @pytest.mark.parametrize(
        "argv, p",
        [
            (["verify-theorems", "--p-grid", "1000"], 1000.0),
            (["verify-theorems", "--p-grid", "460"], 460.0),
            (["norm-estimate", "M", "--p", "1000"], 1000.0),
            (["norm-estimate", "M", "--p", "1000", "--strategy", "frame_ensemble"], 1000.0),
        ],
        ids=["verify-1000", "verify-460", "estimate-exact-1000", "estimate-ensemble-1000"],
    )
    def test_overflowing_sum_is_usage_error_naming_p(self, tmp_path, argv, p):
        """These ended in exit 1 with false FAILs (exit 0 at 460) after
        overflow RuntimeWarnings; the sums are now a named error."""
        write_matrix(tmp_path / "m.json", [[1, 2, 3], [4, 5, 6]])
        argv = [str(tmp_path / "m.json") if a == "M" else a for a in argv]
        code, err, caught = run_quietly([*argv, "--out", str(tmp_path / "r")])
        assert (code, caught) == (2, [])
        assert err.startswith("error: ") and f"overflows at p = {p}" in err
        assert not (tmp_path / "r").exists()

    def test_every_command_keeps_its_exit_contract(self, tmp_path):
        """All four commands at p = 0.001, 400 and 1000: exit 0, 1 or 2, no
        float warning and no traceback, and an exit 2 names p."""
        matrix = tmp_path / "m.json"
        write_matrix(matrix, [[1, 2, 3], [4, 5, 6]])
        for p in ("0.001", "400", "1000"):
            for argv in (
                ["verify-theorems", "--dim", "4", "--trials", "10", "--p-grid", p],
                ["counterexamples", "--p-grid", p],
                ["bergman", "--dim", "4", "--trials", "1", "--p-grid", p],
                ["norm-estimate", str(matrix), "--p", p],
            ):
                code, err, caught = run_quietly([*argv, "--out", str(tmp_path / "r")])
                assert code in (0, 1, 2) and not caught, (argv, code, caught)
                assert "Warning" not in err and "Traceback" not in err, (argv, err)
                if code == 2:
                    assert err.startswith("error: ") and f"p = {float(p)}" in err, (argv, err)


class TestCounterexamples:
    def test_growth_curves_emitted(self, tmp_path):
        out = tmp_path / "r"
        assert main(["counterexamples", "--dim", "4", "--out", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert "growth_control_series_p2.0.csv" in names
        assert any(n.startswith("growth_rank_one_growth") for n in names)

    def test_shift_norms_hold_at_tiny_p(self, tmp_path, capsys):
        """At p = 0.001 the shift's ||T||_p^p = dim - 1 is judged as the sum of
        s^p; through the norm, the 1/p-th root 7^1000 overflowed and failed it."""
        out = tmp_path / "r"
        assert main(["counterexamples", "--p-grid", "0.001", "--out", str(out)]) == 0
        assert "[PASS] shift_diag_vanishing" in capsys.readouterr().out
        [shift] = [r for r in read_report(out)["records"] if r["tag"] == "shift_diag_vanishing"]
        assert shift["norms_equal_dim_minus_one"]

    def test_dim_one_is_usage_error_naming_dim(self, tmp_path, capsys):
        out = tmp_path / "r"
        assert main(["counterexamples", "--dim", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: counterexamples needs dim >= 2, got dim = 1\n"
        assert not out.exists()


class TestBergman:
    def test_smoke(self, tmp_path):
        out = tmp_path / "r"
        code = main(
            ["bergman", "--dim", "4", "--trials", "2", "--rmax", "0.99", "--out", str(out)]
        )
        assert code == 0
        report = read_report(out)
        tags = {rec["tag"] for rec in report["records"]}
        assert {"monomial_orthonormality", "hs_identity", "subharmonicity", "sampling_frame"} <= tags

    def test_grid_past_the_subharmonicity_cut_is_usage_error(self, tmp_path, capsys):
        """A grid with no p <= 3 fell back to subharmonicity records at p = 1.0
        and exited 0, while the config echo showed the requested grid."""
        out = tmp_path / "r"
        argv = ["bergman", "--dim", "4", "--trials", "1", "--p-grid", "1000", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: p_grid has no entry at or below 3.0, the largest p at which bergman "
            "checks subharmonicity; its least entry is p = 1000.0\n"
        )
        assert not out.exists()


class TestSettingsTable:
    """Each command takes the settings that `campaigns._SETTINGS` lists for it and
    refuses every other, each of them changes its records, and no other does."""

    SETTINGS = {f.name for f in dataclasses.fields(CampaignConfig)} - {"command", "output_dir"}
    # a tiny value of every setting, and another valid one
    BASE = {"seed": 0, "dim": 3, "trials": 1, "p_grid": (1.0, 2.0), "rmax": 0.995}
    OTHER = {"seed": 1, "dim": 4, "trials": 2, "p_grid": (0.5, 2.0), "rmax": 0.9}
    MATRIX = np.arange(9.0).reshape(3, 3) - 4.0  # what norm-estimate samples

    def argv(self, command, tmp_path, values):
        """`command` with `values` as flags."""
        args = [command, "--out", str(tmp_path / "r")]
        if command == "norm-estimate":
            write_matrix(tmp_path / "m.json", self.MATRIX)
            args += [str(tmp_path / "m.json"), "--p", "3", "--strategy", "frame_ensemble"]
        for key, value in values.items():
            flag = ",".join(map(str, value)) if key == "p_grid" else str(value)
            args += ["--" + key.replace("_", "-"), flag]
        return args

    @pytest.mark.parametrize("command", sorted(_SETTINGS))
    def test_refuses_a_flag_or_key_outside_its_settings(self, command, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        for key in sorted(self.SETTINGS - set(_SETTINGS[command])):
            flag = "--" + key.replace("_", "-")
            with pytest.raises(SystemExit) as exc:
                main(self.argv(command, tmp_path, {key: self.BASE[key]}))
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
            cfg.write_text(json.dumps({key: self.BASE[key]}))
            assert main([*self.argv(command, tmp_path, {}), "--config", str(cfg)]) == 2
            assert f"keys ['{key}'] that {command} does not read" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("command", sorted(_SETTINGS))
    def test_each_setting_changes_the_records(self, command, tmp_path):
        def records(values):
            assert main(self.argv(command, tmp_path, values)) == 0
            return read_report(tmp_path / "r")["records"]

        base = {key: self.BASE[key] for key in _SETTINGS[command]}
        expected = records(base)
        for key in base:
            assert records({**base, key: self.OTHER[key]}) != expected, key

    @pytest.mark.parametrize("command", sorted(_SETTINGS))
    def test_no_other_setting_changes_the_records(self, command, tmp_path):
        """The run functions read no setting outside the command's entry."""
        matrix = tmp_path / "m.json"
        write_matrix(matrix, self.MATRIX)

        def records(values):
            config = CampaignConfig(command, **values)
            if command == "norm-estimate":
                report = run_norm_estimate(matrix, 3.0, "frame_ensemble", config)
            else:
                report = _COMMANDS[command](config)
            return report.numeric_content()["records"]

        expected = records(self.BASE)
        for key in sorted(self.SETTINGS - set(_SETTINGS[command])):
            assert records({**self.BASE, key: self.OTHER[key]}) == expected, key


class TestNormEstimate:
    def test_exact_strategy(self, tmp_path):
        path = tmp_path / "m.json"
        write_matrix(path, np.diag([3.0, 4.0]).astype(complex))
        out = tmp_path / "r"
        assert main(["norm-estimate", str(path), "--p", "2", "--out", str(out)]) == 0
        rec = read_report(out)["records"][0]
        assert rec["norm"] == pytest.approx(5.0)

    def test_exact_strategy_refuses_the_ensemble_settings(self, tmp_path, capsys):
        """Only the frame_ensemble strategy reads --seed and --trials: under the
        exact strategy their flags and config keys are usage errors naming the
        strategy, and its report echoes neither."""
        path, out, cfg = tmp_path / "m.json", tmp_path / "r", tmp_path / "cfg.json"
        write_matrix(path, np.diag([3.0, 4.0]).astype(complex))
        exact = "norm-estimate --strategy singular_basis_exact"
        args = ["norm-estimate", str(path), "--p", "2", "--out", str(out)]
        for key in ("seed", "trials"):
            assert main([*args, f"--{key}", "5"]) == 2
            assert capsys.readouterr().err == f"error: {exact} does not read --{key}\n"
            cfg.write_text(json.dumps({key: 5}))
            assert main([*args, "--config", str(cfg)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: config file {cfg} has keys ['{key}'] that {exact} ")
        assert not out.exists()
        assert main(args) == 0
        assert read_report(out)["config"] == {"command": "norm-estimate", "output_dir": str(out)}
        ensemble = [*args, "--strategy", "frame_ensemble", "--seed", "5", "--trials", "3"]
        assert main(ensemble) == 0
        assert read_report(out)["config"] == {
            "command": "norm-estimate", "seed": 5, "trials": 3, "output_dir": str(out)
        }

    def test_exact_strategy_wide_operator(self, tmp_path, capsys):
        # the witness basis must span C^8 although T has only 5 singular vectors
        path = tmp_path / "m.json"
        rng = np.random.default_rng(5)
        write_matrix(path, rng.standard_normal((5, 8)) + 1j * rng.standard_normal((5, 8)))
        out = tmp_path / "r"
        assert main(["norm-estimate", str(path), "--p", "1.5", "--out", str(out)]) == 0
        assert "[PASS] norm_estimate" in capsys.readouterr().out

    @pytest.mark.parametrize("p", ["0.5", "0.9"])
    @pytest.mark.parametrize("shape", ["wide", "rank-two"])
    def test_exact_strategy_below_one_on_kernel_vectors(self, tmp_path, capsys, shape, p):
        # the witness basis holds kernel vectors with ||T v|| ~ eps s_1, whose p-th
        # powers (p < 1) exceed the flat slack; they fall within the witness budget
        rng = np.random.default_rng(5 if shape == "wide" else 3)
        if shape == "wide":
            t = rng.standard_normal((5, 8)) + 1j * rng.standard_normal((5, 8))
        else:
            a = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
            t = a @ (rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4)))
        path = tmp_path / "m.json"
        write_matrix(path, t)
        assert main(["norm-estimate", str(path), "--p", p, "--out", str(tmp_path / "r")]) == 0
        assert "[PASS] norm_estimate" in capsys.readouterr().out

    def test_ensemble_strategy_sup(self, tmp_path):
        path = tmp_path / "m.json"
        write_matrix(path, np.diag([2.0, 1.0]).astype(complex))
        out = tmp_path / "r"
        code = main(
            [
                "norm-estimate", str(path), "--p", "4", "--strategy", "frame_ensemble",
                "--trials", "10", "--out", str(out),
            ]
        )
        assert code == 0
        rec = read_report(out)["records"][0]
        assert rec["norm_pth_power"] == pytest.approx(17.0)
        assert rec["ensemble_extremal"] <= 17.0 + 1e-9
        assert rec["direction"] == "sup_below"

    def test_ensemble_strategy_inf(self, tmp_path):
        path = tmp_path / "m.json"
        write_matrix(path, np.diag([2.0, 1.0]).astype(complex))
        out = tmp_path / "r"
        main(
            [
                "norm-estimate", str(path), "--p", "1", "--strategy", "frame_ensemble",
                "--trials", "10", "--out", str(out),
            ]
        )
        rec = read_report(out)["records"][0]
        assert rec["ensemble_extremal"] >= 3.0 - 1e-9
        assert rec["direction"] == "inf_above"

    def test_zero_matrix(self, tmp_path):
        path = tmp_path / "m.json"
        write_matrix(path, np.zeros((2, 2)))
        out = tmp_path / "r"
        assert main(["norm-estimate", str(path), "--p", "2", "--out", str(out)]) == 0
        rec = read_report(out)["records"][0]
        assert rec["norm"] == 0.0

    def test_missing_file_is_io_error(self, tmp_path):
        assert main(["norm-estimate", str(tmp_path / "nope.json"), "--p", "2"]) == 2

    def test_malformed_matrix_is_usage_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"rows": 2}))
        assert main(["norm-estimate", str(path), "--p", "2"]) == 2

    def test_nonpositive_p_is_usage_error(self, tmp_path):
        path = tmp_path / "m.json"
        write_matrix(path, np.eye(2))
        assert main(["norm-estimate", str(path), "--p", "-1"]) == 2

    @pytest.mark.parametrize("p", ["nan", "inf"])
    def test_nonfinite_p_is_usage_error(self, tmp_path, capsys, p):
        path = tmp_path / "m.json"
        write_matrix(path, np.eye(2))
        assert main(["norm-estimate", str(path), "--p", p, "--out", str(tmp_path / "r")]) == 2
        assert f"p must be finite and positive, got {p}" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()
