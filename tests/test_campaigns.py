"""Campaign reports: golden reports of every command, the verify-theorems
frame-generation counts, the bergman kernel-base counts and its traced memory."""

import collections
import csv
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import assert_same_report

from schattenframes import bergman, campaigns, criteria, frames, serialization
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
GOLDEN_SCALED = DATA / "verify_dim16_trials48.json"


def test_golden_report():
    """numeric_content() of `verify-theorems --dim 3 --trials 20`, recorded before
    the trial frames were batched into a FrameEnsemble (numpy 2.4, OpenBLAS).
    The enclosure margins and `frames_certified` were re-recorded when the
    enclosure moved onto the sampled raw frames and the ONB copies left the
    synthesis checks, and `frames_certified` again when the lower-bound-one
    stacks joined them; no other field moved.  Every golden's config echo lost
    its `tolerances` key when the certificate tolerance stopped being a setting,
    and the keys of the settings its command does not read when the echo came
    to list only the command's settings."""
    report = run_verify_theorems(CampaignConfig(dim=3, trials=20))
    actual = json.loads(json.dumps(report.numeric_content()))
    assert_same_report(actual, json.loads(GOLDEN.read_text()))


def test_golden_default_report():
    """numeric_content() of `verify-theorems` at the default config, recorded
    before the synthesis certificates and trial frames were batched
    (numpy 2.4, OpenBLAS); the enclosure margins and the synthesis record
    were re-recorded as in test_golden_report."""
    report = run_verify_theorems(CampaignConfig())
    actual = json.loads(json.dumps(report.numeric_content()))
    assert_same_report(actual, json.loads(GOLDEN_DEFAULT.read_text()))


def test_golden_scaled_report():
    """numeric_content() of `verify-theorems --dim 16 --trials 48`, recorded
    before the certificates and the synthesis checks shared one walk of the
    trial ensemble (numpy 2.4, OpenBLAS); the enclosure margins and the
    synthesis record were re-recorded as in test_golden_report."""
    report = run_verify_theorems(CampaignConfig(dim=16, trials=48))
    actual = json.loads(json.dumps(report.numeric_content()))
    assert_same_report(actual, json.loads(GOLDEN_SCALED.read_text()))


def _norm_estimate(tmp_path, strategy):
    matrix = tmp_path / "matrix.json"
    serialization.write_matrix(matrix, campaigns.random_operator(12, 3))
    return run_norm_estimate(matrix, 1.5, strategy, CampaignConfig())


@pytest.mark.parametrize("strategy", ["singular_basis_exact", "frame_ensemble"])
def test_norm_estimate_takes_one_full_svd(monkeypatch, tmp_path, strategy):
    """The norm, the witness and the certificate all come from one decomposition."""
    full, numpy_svd = [], np.linalg.svd

    def spy(a, *args, **kwargs):
        if kwargs.get("compute_uv", True):
            full.append(a.shape)
        return numpy_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    matrix = tmp_path / "matrix.json"
    serialization.write_matrix(matrix, campaigns.random_operator(6, 3))
    config = CampaignConfig(trials=5)
    assert run_norm_estimate(matrix, 1.5, strategy, config).passed
    assert full == [(6, 6)]


@pytest.mark.parametrize("p", [0.5, 3.0])
def test_wide_certificate_witness_is_the_exact_estimate(tmp_path, p):
    """On a wide T the certificate sums over the whole right basis, as the
    exact estimate does, so the two witnesses agree bit for bit."""
    rng = np.random.default_rng(4)
    t = rng.standard_normal((3, 7)) + 1j * rng.standard_normal((3, 7))
    matrix = tmp_path / "wide.json"
    serialization.write_matrix(matrix, t)
    config = CampaignConfig()
    record = run_norm_estimate(matrix, p, "singular_basis_exact", config).records[0]
    cert = criteria.certify_norm_formula(serialization.read_matrix(matrix), p, trials=5)
    assert cert.witness_value == record["witness_sum"]
    assert cert.equality_witness and record["passed"]


REPORT_CASES = {
    "counterexamples_dim4": lambda tmp: run_counterexamples(CampaignConfig(dim=4)),
    "bergman_dim4_trials2": lambda tmp: run_bergman(CampaignConfig(dim=4, trials=2)),
    "bergman_dim32": lambda tmp: run_bergman(CampaignConfig(dim=32)),
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
    bergman_dim32 was recorded before the subharmonicity stencil was batched.  The
    config echo keys of settings a command does not read were deleted as in
    test_golden_report, and norm_estimate_exact lost `seed` and `trials` when the
    exact strategy stopped reading them; putting those two keys back gives the
    file as it was recorded."""
    actual = written_report(REPORT_CASES[name](tmp_path), tmp_path / "out")
    expected = json.loads((DATA / f"{name}.json").read_text())
    assert actual["csv_headers"] == expected["csv_headers"]
    assert_same_report(actual["report"], expected["report"])


def test_echo_names_the_command_that_ran():
    """The config holds no command, so the echo names the run that wrote it."""
    assert run_counterexamples(CampaignConfig(dim=2)).config["command"] == "counterexamples"


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
    run_verify_theorems(CampaignConfig(dim=dim, trials=trials))
    # the sampled family is the only one: the enclosure pairs operators with its raw frames
    assert set(counts.frames) == family_frames(dim, trials, seed)
    assert set(counts.frames.values()) == {1}
    assert [counts.onb_seeds[seed + i] for i in range(trials)] == [1] * trials
    # nor the ONBs of the second family the enclosure once built on seed + 2000
    assert [counts.onb_seeds[seed + 2000 + i] for i in range(trials)] == [0] * trials
    # the other ONBs are the blocks the frame generator draws: two per trial frame here
    assert sum(counts.onb_seeds.values()) == trials + 2 * len(counts.frames)
    pair_operators = [seed + 1000 + i for i in range(trials)]
    assert [counts.operators[s] for s in pair_operators] == [1] * trials
    assert len(counts.ensembles) == 1


def test_enclosure_reads_every_trial(counts):
    """Above 200 trials too, the enclosure pairs operator seed + 1000 + i with
    trial i's raw frame, and no second family is generated."""
    trials, seed = 250, 0
    report = run_verify_theorems(CampaignConfig(dim=3, trials=trials))
    enclosures = [rec for rec in report.records if rec["tag"] == "double_sum_enclosure"]
    assert len(enclosures) == len(campaigns.DEFAULT_P_GRID)
    assert all(rec["trials"] == trials and rec["passed"] for rec in enclosures)
    pair_operators = [seed + 1000 + i for i in range(trials)]
    assert [counts.operators[s] for s in pair_operators] == [1] * trials
    assert {frame_seed for *_, frame_seed in counts.frames} == set(range(seed, seed + trials))
    assert len(counts.ensembles) == 1


def test_consecutive_campaigns_build_their_own_ensembles(counts):
    config = CampaignConfig(dim=3, trials=12)
    first = run_verify_theorems(config).numeric_content()
    second = run_verify_theorems(config).numeric_content()
    assert first == second
    assert set(counts.frames.values()) == {2}
    assert len(counts.ensembles) == 2
    assert len({id(e) for e in counts.ensembles}) == 2  # both still referenced here


@pytest.mark.parametrize("p", [0.0, float("nan"), float("inf")])
def test_norm_estimate_rejects_p_outside_open_half_line(tmp_path, p):
    config = CampaignConfig()
    with pytest.raises(ValueError, match="p must be"):
        run_norm_estimate(tmp_path / "unread.json", p, "singular_basis_exact", config)


def test_verify_derives_each_regime_stack_once_per_certificate(monkeypatch):
    """The certificates and the synthesis checks share one walk of the ensemble:
    at the default config each of the 8 groups makes its raw frames Parseval
    once and rescales them to upper bound 1 without the public rescale, and
    the synthesis checks certify the ONBs themselves, not Parseval or
    rescaled copies of them."""
    calls = collections.Counter()

    def counted(name, derive):
        def wrapper(*args):
            calls[name] += 1
            return derive(*args)

        return wrapper

    monkeypatch.setattr(frames, "_parseval_vectors", counted("parseval", frames._parseval_vectors))
    upper_one = counted("upper_one", frames.rescale_upper_bound_one)
    monkeypatch.setattr(frames, "rescale_upper_bound_one", upper_one)
    monkeypatch.setattr(frames, "canonical_parseval", counted("canonical", frames.canonical_parseval))
    assert run_verify_theorems(CampaignConfig()).passed
    assert calls == {"parseval": 8}


def test_verify_draws_each_trial_seeds_probes_once(monkeypatch):
    """A trial's ONB, raw, Parseval, upper-bound-one and lower-bound-one frames
    share its probe seed: a default verify draws 200 probe matrices, one per
    trial seed."""
    drawn = collections.Counter()
    probes = frames._probes

    def counted(dim, seed):
        drawn[seed] += 1
        return probes(dim, seed)

    monkeypatch.setattr(frames, "_probes", counted)
    assert run_verify_theorems(CampaignConfig()).passed
    assert drawn == {seed: 1 for seed in range(200)}


def test_verify_certifies_claimed_bounds_without_eigh(monkeypatch):
    """The synthesis checks certify each derived stack at the bounds its
    derivation claims, so verify measures no bounds for them: one
    `_spanning_bounds` per group, for the raw stack its generator draws, 11 eigh
    calls (43 when the derived stacks were measured, 19 when each raw stack's
    Parseval map took a second eigh of S), and one TrialGroup per group, in the
    one walk of the ensemble."""
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    spanning = counted("spanning_bounds", frames._spanning_bounds)
    monkeypatch.setattr(frames, "_spanning_bounds", spanning)
    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    monkeypatch.setattr(frames, "TrialGroup", counted("groups", frames.TrialGroup))
    assert run_verify_theorems(CampaignConfig()).passed
    assert calls == {"eigh": 11, "groups": 8, "spanning_bounds": 8}


def test_verify_fails_parseval_vectors_one_percent_too_long(monkeypatch):
    """Parseval vectors 1% too long (bounds 1.0201) fail the synthesis checks
    and nothing else: the inf-regime sums over longer frames stay above
    ||T||_p^p, so only the bounds the derivation claims catch them."""
    parseval = frames._parseval_vectors
    monkeypatch.setattr(frames, "_parseval_vectors", lambda *args: 1.01 * parseval(*args))
    report = run_verify_theorems(CampaignConfig())
    assert [rec["tag"] for rec in report.records if not rec["passed"]] == ["synthesis_bounds"]


def test_enclosure_margins_are_the_comparisons_least(monkeypatch):
    """Each p's enclosure record takes the least of the one-sided margins that
    the groups' DoubleSumComparisons carry, and judges nothing itself."""
    comparisons, compare = [], criteria._comparisons

    def recorded(*args):
        comparisons.append(compare(*args))
        return comparisons[-1]

    def forbidden(*args):
        raise AssertionError("verify judges no enclosure itself")

    monkeypatch.setattr(criteria, "_comparisons", recorded)
    monkeypatch.setattr(campaigns, "_verdict", forbidden)
    config = CampaignConfig(dim=3, trials=20, p_grid=(0.5, 2.0, 3.0))
    report = run_verify_theorems(config)
    enclosures = [rec for rec in report.records if rec["tag"] == "double_sum_enclosure"]
    assert len(enclosures) == 3 and len(comparisons) == 3  # one call per group
    for j, rec in enumerate(enclosures):
        for side in ("upper", "lower"):
            margins = [getattr(group[j], f"{side}_margin") for group in comparisons]
            least = None if margins[0] is None else min(float(np.min(m)) for m in margins)
            assert rec[f"min_{side}_margin"] == least
    assert [rec["min_upper_margin"] is None for rec in enclosures] == [True, False, False]
    assert [rec["min_lower_margin"] is None for rec in enclosures] == [False, False, True]


def test_verify_fails_lower_one_vectors_one_percent_short(monkeypatch):
    """The lower-bound-one stack that the weighted diagonal sum samples is
    certified at the bounds (1, C2/C1) it carries: its vectors shrunk by 1%
    (lower bound 0.9801) fail the synthesis checks and nothing else."""
    lower_one = frames.TrialGroup.lower_one

    def shrunk_vectors(group):
        stack = lower_one.__get__(group)
        return stack._replace(vectors=0.99 * stack.vectors)

    shrunk = property(shrunk_vectors)
    monkeypatch.setattr(frames.TrialGroup, "lower_one", shrunk)
    report = run_verify_theorems(CampaignConfig())
    assert [rec["tag"] for rec in report.records if not rec["passed"]] == ["synthesis_bounds"]


def test_bergman_builds_each_kernel_base_once(monkeypatch):
    """The stencil grid is built once for every operator and p, and each
    quadrature rule once."""
    stencil_points, rules, in_stencil = [], collections.Counter(), []
    coefficient_matrix, stencil_check = bergman._coefficient_matrix, bergman._subharmonicity
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

    monkeypatch.setattr(bergman, "_coefficient_matrix", counted_matrix)
    monkeypatch.setattr(bergman, "_subharmonicity", marked_check)
    monkeypatch.setattr(bergman, "disk_quadrature", counted_rule)
    report = run_bergman(CampaignConfig(dim=32))
    assert sum(rec["tag"] == "subharmonicity" for rec in report.records) == 25
    # each grid point once for 5 operators x 5 values of p, in blocks
    assert sum(stencil_points) == 6353
    assert max(stencil_points) <= bergman._BLOCK_ENTRIES // 32  # 256 points a block at degree 32
    assert len(rules) == 10 and set(rules.values()) == {1}


def test_verify_at_p_400_holds_without_float_warnings():
    """C2^(p/2) times a norm sum passes the double range at p = 400; the
    bound is then +inf, its correct rounding, and no RuntimeWarning is raised
    (tier-1 turns one into an error).  The margins that reach the report stay finite."""
    report = run_verify_theorems(CampaignConfig(p_grid=(400.0,)))
    assert report.passed
    [enclosure] = [rec for rec in report.records if rec["tag"] == "double_sum_enclosure"]
    assert np.isfinite(enclosure["min_upper_margin"])


@pytest.mark.parametrize("dim, limit_mib", [(32, 2.0), (64, 4.0)])
def test_bergman_traced_peak_memory(dim, limit_mib):
    """tracemalloc counts numpy buffers alike on every machine, unlike RSS.  The
    kernel norms go in blocks of points, so the peak stays far below the
    12.7 (dim 32) and 49.8 MiB (dim 64) of building every kernel matrix whole.
    The synthesis probe products and the monomial Gram go in blocks too: the
    peak reads 1.45 MiB at dim 32 and 2.82 MiB at dim 64, and 2.17 and
    16.3 MiB with the Gram's two nodes x degree factors held whole."""
    run_bergman(CampaignConfig(dim=2, trials=1))  # lazy imports, not traced
    tracemalloc.start()
    try:
        run_bergman(CampaignConfig(dim=dim))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit_mib * 2**20


def test_wide_synthesis_certificate_traced_peak_memory():
    """The 399 x 200 probe product of the widest bergman frame goes 16 probes at a
    time: the peak reads 0.60 MiB, and 2.55 MiB with the product held whole."""
    frame = bergman.sampling_frame(bergman.r_lattice(0.3, 0.95), 32)
    frames.certify_synthesis(frame)
    tracemalloc.start()
    try:
        frames.certify_synthesis(frame)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2**20


@pytest.mark.parametrize("dim, limit_mib", [(None, 1.5), (32, 4.0)], ids=["default", "dim32"])
def test_verify_traced_peak_memory(dim, limit_mib):
    """The walk of the trial ensemble builds each group when it reaches it and
    holds one group's stacks and one trial seed's synthesis probes at a time:
    the peak reads 0.81 MiB at the default config, where holding a group's 25
    probe matrices (1.87 MiB) or every group's derived stacks (2.24 MiB) at
    once would pass the bound, and 2.97 MiB at dim 32, where keeping every
    group's raw frames for the whole run read 7.48 MiB."""
    run_verify_theorems(CampaignConfig(dim=2, trials=1))
    config = CampaignConfig(**({} if dim is None else {"dim": dim}))
    tracemalloc.start()
    try:
        run_verify_theorems(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit_mib * 2**20
