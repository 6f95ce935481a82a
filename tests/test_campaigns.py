"""verify-theorems campaign: golden report and frame-generation counts."""

import collections
import json
from pathlib import Path

import pytest

from schattenframes import campaigns, frames
from schattenframes.campaigns import CampaignConfig, run_verify_theorems

GOLDEN = Path(__file__).parent / "data" / "verify_dim3_trials20.json"
GOLDEN_DEFAULT = Path(__file__).parent / "data" / "verify_default.json"


def assert_same_report(actual, expected, path="report"):
    """Identical structure and verdicts; every float within 1e-12 relative."""
    if isinstance(expected, dict):
        assert isinstance(actual, dict) and actual.keys() == expected.keys(), path
        for key in expected:
            assert_same_report(actual[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), path
        for k, (a, e) in enumerate(zip(actual, expected)):
            assert_same_report(a, e, f"{path}[{k}]")
    elif isinstance(expected, float) and not isinstance(actual, bool):
        assert isinstance(actual, float), path
        assert abs(actual - expected) <= 1e-12 * max(abs(actual), abs(expected)), path
    else:
        assert actual == expected, path


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
