"""Each command loads only the package modules it runs.

`import schattenframes` loads the four modules every command runs; the
public names of `bergman`, `constructions` and `criteria` resolve on first
access.  Each case runs in a fresh interpreter, as a CLI request does.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import schattenframes

EVERY_COMMAND = {"campaigns", "frames", "linalg", "serialization"}
MATRIX = {"rows": 2, "cols": 2, "re": [2.0, 1.0, 0.0, 1.0], "im": [0.0, 0.5, 0.0, 0.0]}
CASES = {
    "import": (None, set()),
    "verify-theorems": (["verify-theorems", "--dim", "2", "--trials", "2"], {"criteria", "cli"}),
    "norm-estimate": (["norm-estimate", "m.json", "--p", "1.5"], {"criteria", "cli"}),
    "bergman": (["bergman", "--dim", "2", "--trials", "1"], {"bergman", "cli"}),
    "counterexamples": (["counterexamples"], {"constructions", "criteria", "cli"}),
}


@pytest.mark.parametrize("argv,added", CASES.values(), ids=CASES)
def test_command_loads_only_the_modules_it_runs(argv, added, tmp_path):
    script = "import json, sys, schattenframes\ncode = 0\n"
    if argv is not None:
        script += f"from schattenframes import cli\ncode = cli.main({[*argv, '--out', 'r']})\n"
    script += "print(json.dumps([code, sorted(m for m in sys.modules if 'schattenframes.' in m)]))"
    (tmp_path / "m.json").write_text(json.dumps(MATRIX))
    src = os.path.dirname(os.path.dirname(schattenframes.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    result = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    code, loaded = json.loads(result.stdout.splitlines()[-1])
    assert code == 0
    assert loaded == sorted(f"schattenframes.{name}" for name in EVERY_COMMAND | added)


def test_public_names_resolve_to_their_module_objects():
    namespace = {}
    exec("from schattenframes import *", namespace)
    for name in schattenframes.__all__:
        home = importlib.import_module(getattr(schattenframes, name).__module__)
        assert getattr(schattenframes, name) is getattr(home, name) is namespace[name], name
    assert len(set(schattenframes.__all__)) == len(schattenframes.__all__) == 57
    assert set(schattenframes.__all__) <= set(dir(schattenframes))
    with pytest.raises(AttributeError, match="no_such_name"):
        schattenframes.no_such_name
