"""Frozen result containers that hold arrays compare and hash by identity."""

import numpy as np
import pytest

from schattenframes.bergman import disk_quadrature, r_lattice
from schattenframes.constructions import (
    divergence_demo_double_sum,
    growth_series,
    scaled_copies_frame,
)
from schattenframes import criteria, frames
from schattenframes.frames import certify_synthesis, make_frame
from schattenframes.linalg import svd

FACTORIES = {
    "Frame": lambda: make_frame(np.eye(2)),
    "SynthesisCertificate": lambda: certify_synthesis(make_frame(np.eye(2))),
    "SpectralData": lambda: svd(np.eye(2)),
    "DoubleSumComparison": lambda: criteria._comparisons(
        np.stack([np.eye(2)] * 2),
        frames._Stack(np.stack([np.eye(2), 2.0 * np.eye(2)]), np.ones(2), np.array([1.0, 4.0])),
        [2.0],
    )[0],
    "GrowthSeries": lambda: growth_series(np.ones(10), (2, 4, 8)),
    "ScaledCopiesFrame": lambda: scaled_copies_frame(3.0, 1.0, 4),
    "DoubleSumDemo": lambda: divergence_demo_double_sum(4, 1.0, (2, 4)),
    "SamplingLattice": lambda: r_lattice(0.5, 0.9),
    "DiskQuadrature": lambda: disk_quadrature(4, 4, 0.9),
}


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_equality_and_hash_are_identity(name):
    first, second = FACTORIES[name](), FACTORIES[name]()
    assert type(first).__name__ == name
    assert first == first and first != second
    assert hash(first) == hash(first)
    assert len({first, second, first}) == 2
