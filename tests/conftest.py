import collections
import dataclasses

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


#: One recorded call of a spied function: its positional and keyword arguments and
#: what it returned.
Call = collections.namedtuple("Call", "args kwargs result")


def spy(monkeypatch, owner, name) -> list:
    """Replace `owner.name` with a wrapper that calls the original; the returned list
    gains one Call per call that returns, in the order the calls return."""
    calls, original = [], getattr(owner, name)

    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append(Call(args, kwargs, result))
        return result

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def assert_same_result(got, want, k=None):
    """Every field of the result dataclass `want` equals that of `got`: of one type,
    bit for bit and by == (so a nan never passes); None and tuples by ==.  Given k,
    `got` is a stack's result and member k of each per-member field (an array or a
    tuple over the stack) is compared, an array's as a Python scalar."""
    for field in dataclasses.fields(want):
        value, expected = getattr(got, field.name), getattr(want, field.name)
        if k is not None and isinstance(value, (np.ndarray, tuple)):
            value = value[k]
            value = value.item() if isinstance(value, np.generic) else value
        assert type(value) is type(expected), field.name
        if expected is None or isinstance(expected, tuple):
            assert value == expected, field.name
        else:
            a, b = np.asarray(value), np.asarray(expected)
            assert a.dtype == b.dtype and a.shape == b.shape, field.name
            assert a.tobytes() == b.tobytes() and np.all(a == b), field.name


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
