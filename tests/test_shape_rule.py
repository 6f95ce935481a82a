"""One shape per value: each public function returns one kind of result.

Each statement of the paper is about one operator, one frame and one
exponent.  A public function that returns X for one input and list[X] for a
sequence makes every caller, and every test, switch on the shape of what it
passed.  So the public functions take one frame, one operator and one p and
return one result; the campaigns batch their work over stacks and p-grids
through private kernels.  No function in a module's `__all__` has a return
annotation that joins a type with `list` or `list[...]`.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

import schattenframes
from schattenframes.frames import make_frame

PACKAGE = Path(schattenframes.__file__).resolve().parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")


def union_members(annotation) -> list:
    """The members of a union annotation X | Y | ..., or the annotation alone."""
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        return union_members(annotation.left) + union_members(annotation.right)
    return [annotation]


def is_list(annotation) -> bool:
    """Whether `annotation` is `list` or `list[...]`."""
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    return isinstance(annotation, ast.Name) and annotation.id == "list"


def shape_switches(source: str, public) -> list:
    """The functions of `public` in `source` whose return annotation joins a type with a list."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in public:
            members = union_members(node.returns) if node.returns is not None else []
            if len(members) > 1 and any(is_list(member) for member in members):
                found.append(node.name)
    return found


def test_the_rule_sees_both_spellings():
    source = (
        "def one(p) -> Report | list[Report]: ...\n"
        "def two(p) -> Report | list: ...\n"
        "def many(ps) -> list[Report]: ...\n"
        "def pair(p) -> tuple[Frame, Report]: ...\n"
        "def _kernel(ps) -> Report | list: ...\n"
    )
    assert shape_switches(source, {"one", "two", "many", "pair"}) == ["one", "two"]


@pytest.mark.parametrize("module", MODULES)
def test_public_functions_return_one_shape(module):
    public = set(importlib.import_module(f"schattenframes.{module}").__all__)
    assert not shape_switches((PACKAGE / f"{module}.py").read_text(), public)


def test_make_frame_holds_a_read_only_copy():
    """`make_frame` keeps a read-only copy of the caller's array: writing the array
    afterwards moves neither the frame's vectors nor its bounds."""
    vectors = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]], dtype=np.complex128)
    frame = make_frame(vectors)
    kept, bounds = frame.vectors.copy(), frame.bounds
    vectors[:] = 5.0
    np.testing.assert_array_equal(frame.vectors, kept)
    assert frame.bounds == bounds
    with pytest.raises(ValueError):
        frame.vectors[0, 0] = 2.0
