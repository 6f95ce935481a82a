"""Exchange-format round trips and CSV writers."""

import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schattenframes.constructions import growth_series
from schattenframes.serialization import (
    matrix_from_dict,
    matrix_to_dict,
    read_matrix,
    write_growth_csv,
    write_matrix,
    write_nodes_csv,
)


class TestMatrixFormat:
    def test_round_trip_bit_exact(self, rng):
        m = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        m[0, 0] = -0.0  # signed zero survives
        m[1, 2] = 1e-308  # subnormal-adjacent values survive
        encoded = json.dumps(matrix_to_dict(m))
        decoded = matrix_from_dict(json.loads(encoded))
        np.testing.assert_array_equal(decoded, m)

    def test_row_major_layout(self):
        d = matrix_to_dict(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert d["re"] == [1.0, 2.0, 3.0, 4.0]
        assert d["rows"] == 2 and d["cols"] == 2

    def test_file_round_trip(self, tmp_path, rng):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        path = tmp_path / "m.json"
        write_matrix(path, m)
        np.testing.assert_array_equal(read_matrix(path), m)

    def test_rejects_bad_payload(self):
        with pytest.raises(ValueError, match="malformed"):
            matrix_from_dict({"rows": 2})
        with pytest.raises(ValueError, match="rows"):
            matrix_from_dict({"rows": 2, "cols": 2, "re": [1.0], "im": [0.0]})

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            matrix_to_dict(np.array([[np.inf]]))


#: Entry parts before scaling: the interval holds both zeros and subnormals, and
#: the fixed values make -0.0 and the smallest subnormal common.
PARTS = st.one_of(st.floats(-1.0, 1.0), st.sampled_from([-0.0, 5e-324, -5e-324]))


def json_round_trip(d: dict) -> dict:
    return json.loads(json.dumps(d))


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(
    rows=st.integers(1, 4),
    cols=st.integers(1, 4),
    k=st.integers(-1074, 1023),
    data=st.data(),
)
def test_matrix_round_trip_is_bit_exact_at_every_scale(rows, cols, k, data):
    n = rows * cols
    parts = np.ldexp(data.draw(st.lists(PARTS, min_size=2 * n, max_size=2 * n)), k)
    m = np.empty((rows, cols), dtype=np.complex128)
    m.real, m.imag = parts[:n].reshape(rows, cols), parts[n:].reshape(rows, cols)
    decoded = matrix_from_dict(json_round_trip(matrix_to_dict(m)))
    assert decoded.shape == m.shape and decoded.tobytes() == m.tobytes()


class TestNodesCsv:
    def test_quadrature_nodes_with_weights(self, tmp_path):
        from schattenframes.bergman import disk_quadrature

        quad = disk_quadrature(4, 6, 0.9)
        path = tmp_path / "nodes.csv"
        write_nodes_csv(path, quad.nodes, quad.weights_da)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 24
        total = sum(float(r["weight"]) for r in rows)
        assert total == pytest.approx(0.81, abs=1e-12)

    def test_lattice_points_without_weights(self, tmp_path):
        from schattenframes.bergman import r_lattice

        lattice = r_lattice(0.5, 0.9)
        path = tmp_path / "lattice.csv"
        write_nodes_csv(path, lattice.points)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == lattice.points.size
        assert set(rows[0]) == {"re", "im"}


class TestGrowthCsv:
    def test_columns_and_values(self, tmp_path):
        series = growth_series(np.ones(100), (10, 20, 40, 80))
        path = tmp_path / "growth.csv"
        write_growth_csv(path, series)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["N"]) for r in rows] == [10, 20, 40, 80]
        assert [float(r["partial_sum"]) for r in rows] == [10.0, 20.0, 40.0, 80.0]
        assert rows[0]["increment_ratio"] == ""
        assert float(rows[2]["increment_ratio"]) == pytest.approx(2.0)
