"""Each command loads only the package modules it runs.

`import schattenframes` loads none of its modules and no numpy; a public
name read off the package loads its home module and the modules before it
in `schattenframes._MODULES`.  Each case runs in a fresh interpreter, as a
CLI request does.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import schattenframes

MATRIX = {"rows": 2, "cols": 2, "re": [2.0, 1.0, 0.0, 1.0], "im": [0.0, 0.5, 0.0, 0.0]}
#: Each case's request and the full set of package modules it loads
CASES = {
    "import": (None, set()),
    "verify-theorems": (
        ["verify-theorems", "--dim", "2", "--trials", "2"],
        {"campaigns", "cli", "criteria", "frames", "linalg", "serialization"},
    ),
    "norm-estimate": (
        ["norm-estimate", "m.json", "--p", "1.5"],
        {"campaigns", "cli", "criteria", "frames", "linalg", "serialization"},
    ),
    "bergman": (
        ["bergman", "--dim", "2", "--trials", "1"],
        {"bergman", "campaigns", "cli", "frames", "linalg", "serialization"},
    ),
    "counterexamples": (
        ["counterexamples"],
        {"campaigns", "cli", "constructions", "criteria", "frames", "linalg", "serialization"},
    ),
}


def loaded_after(script: str, cwd) -> tuple:
    """What `script` prints last, and the package modules (and numpy) loaded when it ends."""
    script += "\nloaded = (m for m in sys.modules if m == 'numpy' or 'schattenframes.' in m)"
    script += "\nprint(json.dumps(sorted(loaded)))"
    src = os.path.dirname(os.path.dirname(schattenframes.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    result = subprocess.run(
        [sys.executable, "-c", f"import json, sys\n{script}"],
        cwd=cwd, env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    *out, loaded = result.stdout.splitlines()
    return out[-1] if out else None, json.loads(loaded)


@pytest.mark.parametrize("argv,modules", CASES.values(), ids=CASES)
def test_command_loads_only_the_modules_it_runs(argv, modules, tmp_path):
    script = "import schattenframes"
    if argv is not None:
        script += f"\nfrom schattenframes import cli\nprint(cli.main({[*argv, '--out', 'r']}))"
    (tmp_path / "m.json").write_text(json.dumps(MATRIX))
    code, loaded = loaded_after(script, tmp_path)
    assert code == (None if argv is None else "0")
    package = [f"schattenframes.{name}" for name in sorted(modules)]
    assert loaded == (["numpy", *package] if modules else [])


def test_a_name_loads_its_home_and_the_modules_before_it(tmp_path):
    _, loaded = loaded_after("import schattenframes\nschattenframes.svd", tmp_path)
    assert loaded == ["numpy", "schattenframes.linalg"]
    probe = "import schattenframes as s\nprint(s.__version__, hasattr(s, '__wrapped__'))"
    assert loaded_after(probe, tmp_path) == ("0.1.0 False", [])


def test_public_names_resolve_to_their_module_objects():
    namespace = {}
    exec("from schattenframes import *", namespace)
    homes = [importlib.import_module(f"schattenframes.{m}") for m in schattenframes._MODULES]
    assert schattenframes.__all__ == [name for home in homes for name in home.__all__]
    assert len(set(schattenframes.__all__)) == len(schattenframes.__all__) == 78
    for home in homes:
        for name in home.__all__:
            assert getattr(schattenframes, name) is getattr(home, name) is namespace[name], name
    assert set(schattenframes.__all__) <= set(dir(schattenframes))
    assert not set(vars(schattenframes)) & set(schattenframes.__all__)
    for name in ("no_such_name", "__wrapped__", "_no_such_name"):
        with pytest.raises(AttributeError, match=name):
            getattr(schattenframes, name)
