import numpy as np
import pytest

from schattenframes.campaigns import random_hermitian, random_operator, random_psd
from schattenframes.frames import Frame


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def seeded_operators(dim, count, seed=0):
    return [random_operator(dim, seed + i) for i in range(count)]


def seeded_hermitians(dim, count, seed=0):
    return [random_hermitian(dim, seed + i) for i in range(count)]


def seeded_psds(dim, count, seed=0):
    return [random_psd(dim, seed + i) for i in range(count)]


def frame_at(stack, k):
    """Member k of a stack of frames (frames._Stack) as one Frame, sharing its vectors."""
    return Frame(stack.vectors[k], float(stack.lower_bound[k]), float(stack.upper_bound[k]))


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
