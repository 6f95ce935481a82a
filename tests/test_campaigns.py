"""Campaign reports: golden reports of every command, the verify-theorems
frame-generation counts, the bergman kernel-base counts and the traced peak memory."""

import collections
import csv
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import assert_same_report, spy

from schattenframes import bergman, campaigns, criteria, frames, serialization
from schattenframes.campaigns import (
    CampaignConfig,
    run_bergman,
    run_counterexamples,
    run_norm_estimate,
    run_verify_theorems,
)

DATA = Path(__file__).parent / "data"


def _norm_estimate(tmp_path, strategy):
    matrix = tmp_path / "matrix.json"
    serialization.write_matrix(matrix, campaigns.random_operator(12, 3))
    return run_norm_estimate(matrix, 1.5, strategy, CampaignConfig())


@pytest.mark.parametrize("strategy", ["singular_basis_exact", "frame_ensemble"])
def test_norm_estimate_takes_one_full_svd(monkeypatch, tmp_path, strategy):
    """The norm, the witness and the certificate all come from one decomposition."""
    calls = spy(monkeypatch, np.linalg, "svd")
    matrix = tmp_path / "matrix.json"
    serialization.write_matrix(matrix, campaigns.random_operator(6, 3))
    config = CampaignConfig(trials=5)
    assert run_norm_estimate(matrix, 1.5, strategy, config).passed
    full = [call.args[0].shape for call in calls if call.kwargs.get("compute_uv", True)]
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


#: The golden reports: tests/data/<name>.json holds the written_report() of the run
#: that GOLDEN[name] makes, recorded with numpy 2.4 on OpenBLAS.
GOLDEN = {
    # every verify record at the default config: 8 groups of 25 trial frames in C^8
    "verify_default": lambda tmp: run_verify_theorems(CampaignConfig()),
    # verify over 3 groups of 7, 7 and 6 trial frames in C^3
    "verify_dim3_trials20": lambda tmp: run_verify_theorems(CampaignConfig(dim=3, trials=20)),
    # verify over 16 groups of 3 trial frames in C^16
    "verify_dim16_trials48": lambda tmp: run_verify_theorems(CampaignConfig(dim=16, trials=48)),
    # every counterexample series and its growth CSVs in C^4
    "counterexamples_dim4": lambda tmp: run_counterexamples(CampaignConfig(dim=4)),
    # every bergman record, lattice and node CSV at degree 4 with 2 trials
    "bergman_dim4_trials2": lambda tmp: run_bergman(CampaignConfig(dim=4, trials=2)),
    # bergman at degree 32, where the kernel norms and the stencil go in blocks
    "bergman_dim32": lambda tmp: run_bergman(CampaignConfig(dim=32)),
    # the exact norm estimate of a seeded 12 x 12 operator at p = 1.5
    "norm_estimate_exact": lambda tmp: _norm_estimate(tmp, "singular_basis_exact"),
    # the frame-ensemble norm estimate of that operator
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


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_campaign_report(name, tmp_path):
    """The CSV file names and header rows exactly, numeric_content() as in
    assert_same_report (every float within 1e-12 relative)."""
    actual = written_report(GOLDEN[name](tmp_path), tmp_path / "out")
    expected = json.loads((DATA / f"{name}.json").read_text())
    assert actual["csv_headers"] == expected["csv_headers"]
    assert_same_report(actual["report"], expected["report"])


def test_every_golden_file_is_one_case():
    """No golden file outlives its case, and no case lacks its file."""
    assert sorted(path.stem for path in DATA.glob("*.json")) == sorted(GOLDEN)


def test_echo_names_the_command_that_ran():
    """The config holds no command, so the echo names the run that wrote it."""
    assert run_counterexamples(CampaignConfig(dim=2)).config["command"] == "counterexamples"


class GenerationCounts:
    """Calls of the seeded generators, counted by their arguments."""

    def __init__(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("campaigns sample the ensemble, not random_onb")

        monkeypatch.setattr(frames, "random_onb", forbidden)
        self.frame_calls = spy(monkeypatch, frames, "_random_frames")
        self.onb_calls = spy(monkeypatch, frames, "_onb_stack")
        self.operator_calls = spy(monkeypatch, campaigns, "random_operator")
        self.ensemble_inits = spy(monkeypatch, frames.FrameEnsemble, "__init__")

    @property
    def frames(self):
        """(dim, count, condition_target, seed) of each frame drawn, counted."""
        calls = self.frame_calls
        return collections.Counter((*args[:3], seed) for args, *_ in calls for seed in args[3])

    @property
    def onb_seeds(self):
        return collections.Counter(int(s) for (_, seeds), *_ in self.onb_calls for s in seeds)

    @property
    def operators(self):
        return collections.Counter(seed for (_, seed), *_ in self.operator_calls)

    @property
    def ensembles(self):
        return [call.args[0] for call in self.ensemble_inits]


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
    parseval = spy(monkeypatch, frames, "_parseval_vectors")
    upper_one = spy(monkeypatch, frames, "rescale_upper_bound_one")
    canonical = spy(monkeypatch, frames, "canonical_parseval")
    assert run_verify_theorems(CampaignConfig()).passed
    assert (len(parseval), len(upper_one), len(canonical)) == (8, 0, 0)


def test_verify_draws_each_trial_seeds_probes_once(monkeypatch):
    """A trial's ONB, raw, Parseval, upper-bound-one and lower-bound-one frames
    share its probe seed: a default verify draws 200 probe matrices, one per
    trial seed."""
    drawn = spy(monkeypatch, frames, "_probes")
    assert run_verify_theorems(CampaignConfig()).passed
    assert sorted(seed for (_, seed), *_ in drawn) == list(range(200))


def test_verify_certifies_claimed_bounds_without_eigh(monkeypatch):
    """The synthesis checks certify each derived stack at the bounds its
    derivation claims, so verify measures no bounds for them: one
    `_spanning_bounds` per group, for the raw stack its generator draws, 11 eigh
    calls (43 when the derived stacks were measured, 19 when each raw stack's
    Parseval map took a second eigh of S), and one TrialGroup per group, in the
    one walk of the ensemble."""
    eigh = spy(monkeypatch, np.linalg, "eigh")
    groups = spy(monkeypatch, frames, "TrialGroup")
    spanning = spy(monkeypatch, frames, "_spanning_bounds")
    assert run_verify_theorems(CampaignConfig()).passed
    assert (len(eigh), len(groups), len(spanning)) == (11, 8, 8)


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
    calls = spy(monkeypatch, criteria, "_comparisons")

    def forbidden(*args):
        raise AssertionError("verify judges no enclosure itself")

    monkeypatch.setattr(campaigns, "_verdict", forbidden)
    config = CampaignConfig(dim=3, trials=20, p_grid=(0.5, 2.0, 3.0))
    report = run_verify_theorems(config)
    comparisons = [call.result for call in calls]
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
    matrices = spy(monkeypatch, bergman, "_coefficient_matrix")
    rules = spy(monkeypatch, bergman, "disk_quadrature")
    stencil_points, stencil_check = [], bergman._subharmonicity

    def marked_check(*args, **kwargs):
        # a spy sees calls, not their callers: the stencil's builds are those made while it runs
        start = len(matrices)
        reports = stencil_check(*args, **kwargs)
        stencil_points.extend(points.size for (points, *_), *_ in matrices[start:])
        return reports

    monkeypatch.setattr(bergman, "_subharmonicity", marked_check)
    report = run_bergman(CampaignConfig(dim=32))
    assert sum(rec["tag"] == "subharmonicity" for rec in report.records) == 25
    # each grid point once for 5 operators x 5 values of p, in blocks
    assert sum(stencil_points) == 6353
    assert max(stencil_points) <= bergman._BLOCK_ENTRIES // 32  # 256 points a block at degree 32
    rule_counts = collections.Counter(call.args for call in rules)
    assert len(rule_counts) == 10 and set(rule_counts.values()) == {1}


def test_verify_at_p_400_holds_without_float_warnings():
    """C2^(p/2) times a norm sum passes the double range at p = 400; the
    bound is then +inf, its correct rounding, and no RuntimeWarning is raised
    (tier-1 turns one into an error).  The margins that reach the report stay finite."""
    report = run_verify_theorems(CampaignConfig(p_grid=(400.0,)))
    assert report.passed
    [enclosure] = [rec for rec in report.records if rec["tag"] == "double_sum_enclosure"]
    assert np.isfinite(enclosure["min_upper_margin"])


def traced_peak(request) -> int:
    """The peak bytes tracemalloc counts while request() runs, after one untraced
    run has loaded the lazy imports.  tracemalloc counts numpy buffers alike on
    every machine, unlike RSS."""
    request()
    tracemalloc.start()
    try:
        request()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("dim, limit_mib", [(32, 2.0), (64, 4.0)])
def test_bergman_traced_peak_memory(dim, limit_mib):
    """The kernel norms go in blocks of points, so the peak stays far below the
    12.7 (dim 32) and 49.8 MiB (dim 64) of building every kernel matrix whole.
    The synthesis probe products and the monomial Gram go in blocks too: the
    peak reads 1.45 MiB at dim 32 and 2.82 MiB at dim 64, and 2.17 and
    16.3 MiB with the Gram's two nodes x degree factors held whole."""
    assert traced_peak(lambda: run_bergman(CampaignConfig(dim=dim))) <= limit_mib * 2**20


def test_wide_synthesis_certificate_traced_peak_memory():
    """The 399 x 200 probe product of the widest bergman frame goes 16 probes at a
    time: the peak reads 0.60 MiB, and 2.55 MiB with the product held whole."""
    frame = bergman.sampling_frame(bergman.r_lattice(0.3, 0.95), 32)
    assert traced_peak(lambda: frames.certify_synthesis(frame)) <= 1.5 * 2**20


@pytest.mark.parametrize("dim, limit_mib", [(None, 1.5), (32, 4.0)], ids=["default", "dim32"])
def test_verify_traced_peak_memory(dim, limit_mib):
    """The walk of the trial ensemble builds each group when it reaches it and
    holds one group's stacks and one trial seed's synthesis probes at a time:
    the peak reads 0.81 MiB at the default config, where holding a group's 25
    probe matrices (1.87 MiB) or every group's derived stacks (2.24 MiB) at
    once would pass the bound, and 2.97 MiB at dim 32, where keeping every
    group's raw frames for the whole run read 7.48 MiB."""
    config = CampaignConfig(**({} if dim is None else {"dim": dim}))
    assert traced_peak(lambda: run_verify_theorems(config)) <= limit_mib * 2**20
