"""Campaign reports: golden reports of every command, the verify-theorems
frame-generation counts and the bergman kernel-base counts."""

import collections
import csv
import json
from pathlib import Path

import pytest
from conftest import assert_same_report

from schattenframes import bergman, campaigns, frames, serialization
from schattenframes.campaigns import (
    CampaignConfig,
    run_bergman,
    run_counterexamples,
    run_norm_estimate,
    run_verify_theorems,
)

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "verify_dim3_trials20.json"
GOLDEN_DEFAULT = DATA / "verify_default.json"


def test_golden_report():
    """numeric_content() of `verify-theorems --dim 3 --trials 20`, recorded before
    the trial frames were batched into a FrameEnsemble (numpy 2.4, OpenBLAS)."""
    report = run_verify_theorems(CampaignConfig(command="verify-theorems", dim=3, trials=20))
    actual = json.loads(json.dumps(report.numeric_content()))
    assert_same_report(actual, json.loads(GOLDEN.read_text()))


def test_golden_default_report():
    """numeric_content() of `verify-theorems` at the default config, recorded
    before the synthesis certificates and trial frames were batched
    (numpy 2.4, OpenBLAS)."""
    report = run_verify_theorems(CampaignConfig(command="verify-theorems"))
    actual = json.loads(json.dumps(report.numeric_content()))
    assert_same_report(actual, json.loads(GOLDEN_DEFAULT.read_text()))


def _norm_estimate(tmp_path, strategy):
    matrix = tmp_path / "matrix.json"
    serialization.write_matrix(matrix, campaigns.random_operator(12, 3))
    return run_norm_estimate(matrix, 1.5, strategy, CampaignConfig(command="norm-estimate"))


REPORT_CASES = {
    "counterexamples_dim4": lambda tmp: run_counterexamples(
        CampaignConfig(command="counterexamples", dim=4)
    ),
    "bergman_dim4_trials2": lambda tmp: run_bergman(
        CampaignConfig(command="bergman", dim=4, trials=2)
    ),
    "bergman_dim32": lambda tmp: run_bergman(CampaignConfig(command="bergman", dim=32)),
    "norm_estimate_exact": lambda tmp: _norm_estimate(tmp, "singular_basis_exact"),
    "norm_estimate_ensemble": lambda tmp: _norm_estimate(tmp, "frame_ensemble"),
}


def written_report(report, out: Path) -> dict:
    """numeric_content() plus the header row of each CSV that write() puts in `out`."""
    report.write(out)
    headers = {}
    for path in sorted(out.glob("*.csv")):
        with open(path, newline="") as fh:
            headers[path.name] = next(csv.reader(fh), [])
    return {"report": json.loads(json.dumps(report.numeric_content())), "csv_headers": headers}


@pytest.mark.parametrize("name", sorted(REPORT_CASES))
def test_golden_campaign_report(name, tmp_path):
    """numeric_content(), CSV file names and CSV header rows, recorded before the
    report records were derived from the result dataclasses (numpy 2.4, OpenBLAS);
    bergman_dim32 was recorded before the subharmonicity stencil was batched."""
    actual = written_report(REPORT_CASES[name](tmp_path), tmp_path / "out")
    expected = json.loads((DATA / f"{name}.json").read_text())
    assert actual["csv_headers"] == expected["csv_headers"]
    assert_same_report(actual["report"], expected["report"])


class GenerationCounts:
    """Counts calls of the seeded generators, keyed by their arguments."""

    def __init__(self, monkeypatch):
        self.frames = collections.Counter()
        self.onb_seeds = collections.Counter()
        self.operators = collections.Counter()
        self.ensembles = []
        random_frames, onb_stack = frames._random_frames, frames._onb_stack
        random_operator, ensemble_init = campaigns.random_operator, frames.FrameEnsemble.__init__

        def counted_frames(dim, count, condition_target, seeds):
            self.frames.update((dim, count, condition_target, seed) for seed in seeds)
            return random_frames(dim, count, condition_target, seeds)

        def counted_onbs(dim, seeds):
            self.onb_seeds.update(int(s) for s in seeds)
            return onb_stack(dim, seeds)

        def counted_operator(dim, seed):
            self.operators[seed] += 1
            return random_operator(dim, seed)

        def counted_init(ensemble, *args):
            self.ensembles.append(ensemble)
            ensemble_init(ensemble, *args)

        def forbidden(*args):
            raise AssertionError("campaigns sample the ensemble, not random_onb")

        monkeypatch.setattr(frames, "_random_frames", counted_frames)
        monkeypatch.setattr(frames, "_onb_stack", counted_onbs)
        monkeypatch.setattr(frames, "random_onb", forbidden)
        monkeypatch.setattr(campaigns, "random_operator", counted_operator)
        monkeypatch.setattr(frames.FrameEnsemble, "__init__", counted_init)


@pytest.fixture
def counts(monkeypatch):
    return GenerationCounts(monkeypatch)


def family_frames(dim, trials, seed):
    return {(dim, dim + (i % dim) + 1, 100.0, seed + i) for i in range(trials)}


def test_each_trial_frame_generated_once(counts):
    dim, trials, seed = 3, 12, 0
    run_verify_theorems(CampaignConfig(command="verify-theorems", dim=dim, trials=trials))
    sampled = family_frames(dim, trials, seed)
    enclosure = family_frames(dim, trials, seed + 2000)
    assert set(counts.frames) == sampled | enclosure
    assert set(counts.frames.values()) == {1}
    trial_onbs = [seed + i for i in range(trials)] + [seed + 2000 + i for i in range(trials)]
    assert [counts.onb_seeds[s] for s in trial_onbs] == [1] * len(trial_onbs)
    # the other ONBs are the blocks the frame generator draws: two per trial frame here
    assert sum(counts.onb_seeds.values()) == len(trial_onbs) + 2 * len(counts.frames)
    pair_operators = [seed + 1000 + i for i in range(trials)]
    assert [counts.operators[s] for s in pair_operators] == [1] * trials
    assert len(counts.ensembles) == 2


def test_consecutive_campaigns_build_their_own_ensembles(counts):
    config = CampaignConfig(command="verify-theorems", dim=3, trials=12)
    first = run_verify_theorems(config).numeric_content()
    second = run_verify_theorems(config).numeric_content()
    assert first == second
    assert set(counts.frames.values()) == {2}
    assert len(counts.ensembles) == 4
    assert len({id(e) for e in counts.ensembles}) == 4  # all still referenced here


@pytest.mark.parametrize("p", [0.0, float("nan"), float("inf")])
def test_norm_estimate_rejects_p_outside_open_half_line(tmp_path, p):
    config = CampaignConfig(command="norm-estimate")
    with pytest.raises(ValueError, match="p must be"):
        run_norm_estimate(tmp_path / "unread.json", p, "singular_basis_exact", config)


def test_verify_derives_each_regime_stack_once_per_certificate(monkeypatch):
    """Each certificate walks every regime of its p-grid once: at the default
    config the certificates derive 24 Parseval and 32 upper-bound-one stacks,
    and the synthesis variants 16 of each."""
    calls = collections.Counter()
    for name in ("canonical_parseval", "rescale_upper_bound_one"):

        def counted(frame, name=name, derive=getattr(frames, name)):
            calls[name] += 1
            return derive(frame)

        monkeypatch.setattr(frames, name, counted)
        monkeypatch.setattr(campaigns, name, counted)
    assert run_verify_theorems(CampaignConfig(command="verify-theorems")).passed
    assert 0 < calls["canonical_parseval"] <= 40
    assert 0 < calls["rescale_upper_bound_one"] <= 48


def test_bergman_builds_each_kernel_base_once(monkeypatch):
    """The stencil grid is built once for every operator and p, each quadrature
    rule once, and the lattice separations are read from the lattices."""
    stencil_points, rules, in_stencil = [], collections.Counter(), []
    coefficient_matrix, stencil_check = bergman._coefficient_matrix, bergman.subharmonicity_check
    disk_quadrature = bergman.disk_quadrature

    def counted_matrix(points, degree, normalized):
        if in_stencil:
            stencil_points.append(points.size)
        return coefficient_matrix(points, degree, normalized)

    def marked_check(*args, **kwargs):
        in_stencil.append(True)
        try:
            return stencil_check(*args, **kwargs)
        finally:
            in_stencil.pop()

    def counted_rule(n_radial, n_angular, rmax):
        rules[(n_radial, n_angular, rmax)] += 1
        return disk_quadrature(n_radial, n_angular, rmax)

    def forbidden(points):
        raise AssertionError("run_bergman reads the separation the lattice measured")

    monkeypatch.setattr(bergman, "_coefficient_matrix", counted_matrix)
    monkeypatch.setattr(bergman, "subharmonicity_check", marked_check)
    monkeypatch.setattr(bergman, "disk_quadrature", counted_rule)
    monkeypatch.setattr(bergman, "min_pairwise_separation", forbidden)
    report = run_bergman(CampaignConfig(command="bergman", dim=32))
    assert sum(rec["tag"] == "subharmonicity" for rec in report.records) == 25
    assert stencil_points == [6353]  # one grid for 5 operators x 5 values of p
    assert len(rules) == 10 and set(rules.values()) == {1}
