"""CLI behavior: flags, config files, reports, exit codes, determinism."""

import contextlib
import dataclasses
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schattenframes.cli import main
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
            ["counterexamples", "--config", str(cfg), "--dim", "4", "--out", str(out)]
        )
        assert code == 0
        report = read_report(out)
        assert report["config"]["dim"] == 4  # flag wins
        assert report["config"]["seed"] == 9  # file value survives

    def test_malformed_config_is_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["verify-theorems", "--config", str(cfg)]) == 2


# (flags, config file contents or None, text the error must name)
INVALID_INPUTS = {
    "p-grid-nan": (["--p-grid", "nan,1"], None, "p_grid"),
    "p-grid-inf": (["--p-grid", "inf"], None, "p_grid"),
    "p-grid-string": ([], {"p-grid": "1,2"}, "p_grid"),
    "unknown-key": ([], {"dimm": 3}, "dimm"),
    "string-dim": ([], {"dim": "3"}, "dim"),
    "top-level-list": ([], [3], "JSON object"),
    "rmax-nan": (["--rmax", "nan"], None, "rmax"),
    "rmax-inf": (["--rmax", "inf"], None, "rmax"),
    "rmax-zero": (["--rmax", "0"], None, "rmax"),
    "rmax-one": (["--rmax", "1"], None, "rmax"),
    "rmax-string": ([], {"rmax": "0.5"}, "rmax"),
    "float-seed": ([], {"seed": 1.5}, "seed"),
    "bool-seed": ([], {"seed": True}, "seed"),
    "string-trials": ([], {"trials": "10"}, "trials"),
    "float-trials": ([], {"trials": 10.0}, "trials"),
    "tolerances-not-object": ([], {"tolerances": 5}, "tolerances"),
    "tolerance-nan": ([], {"tolerances": {"certificate": float("nan")}}, "tolerances"),
    "tolerance-unknown-name": ([], {"tolerances": {"certifcate": 1e-3}}, "certifcate"),
    "output-dir-number": ([], {"output_dir": 5}, "output_dir"),
}


class TestInvalidInput:
    @pytest.mark.parametrize("flags,config,named", INVALID_INPUTS.values(), ids=INVALID_INPUTS)
    def test_is_usage_error_naming_the_input(
        self, tmp_path, monkeypatch, capsys, flags, config, named
    ):
        monkeypatch.chdir(tmp_path)  # the default report directory is relative
        args = ["verify-theorems", *flags]
        if config is not None:
            Path("cfg.json").write_text(json.dumps(config))
            args += ["--config", "cfg.json"]
        assert main(args) == 2
        assert named in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == (["cfg.json"] if config else [])


# Front-door inputs: each parameter is a flag, a config-file entry or absent.
P_ENTRIES = st.one_of(
    st.floats(0.25, 5.0), st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0.0, "x", "2"])
)
RMAX = st.sampled_from([-0.5, 0.0, 0.3, 0.9, 0.995, 1.0, 1.5, math.nan, math.inf])
EXTRAS = st.sampled_from(
    [{}, {"dimm": 3}, {"tolerances": {"certifcate": 1e-3}}, {"tolerances": {"certificate": 1e-6}}]
)


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
    """Any mix of flags and config-file entries ends in exit 0, 1 or 2, never a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        args, config = [command, "--out", str(Path(tmp) / "r")], dict(extra)
        for key, value in values.items():
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


class TestCounterexamples:
    def test_growth_curves_emitted(self, tmp_path):
        out = tmp_path / "r"
        assert main(["counterexamples", "--dim", "4", "--trials", "2", "--out", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert "growth_control_series_p2.0.csv" in names
        assert any(n.startswith("growth_rank_one_growth") for n in names)

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


class TestNormEstimate:
    def test_exact_strategy(self, tmp_path):
        path = tmp_path / "m.json"
        write_matrix(path, np.diag([3.0, 4.0]).astype(complex))
        out = tmp_path / "r"
        assert main(["norm-estimate", str(path), "--p", "2", "--out", str(out)]) == 0
        rec = read_report(out)["records"][0]
        assert rec["norm"] == pytest.approx(5.0)

    def test_exact_strategy_wide_operator(self, tmp_path, capsys):
        # the witness basis must span C^8 although T has only 5 singular vectors
        path = tmp_path / "m.json"
        rng = np.random.default_rng(5)
        write_matrix(path, rng.standard_normal((5, 8)) + 1j * rng.standard_normal((5, 8)))
        out = tmp_path / "r"
        assert main(["norm-estimate", str(path), "--p", "1.5", "--out", str(out)]) == 0
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
