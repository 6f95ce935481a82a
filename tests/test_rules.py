"""Each rule of the package has one owner; one table states them all.

The paper's characterizations are p-th power sums of pairings such as
||T f_n||^p, <T f_n, f_n> and <T f_n, f_m>, and each rule behind those sums
lives in one place (ROADMAP aim 2).  A row of RULES holds a rule's detector,
its owner sites as (module, function), where either may be ANY, a planted
snippet and the reason the rule has one owner.  Three tests guard each row:
every owner still holds the rule, no other site of the package matches, and
the detector fires on its plant, so an exclusion that swallowed every site
cannot pass unseen.
"""

import ast
import re
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

import schattenframes

PACKAGE = Path(schattenframes.__file__).resolve().parent
ANY = "any"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


class Source(NamedTuple):
    lines: list
    tree: ast.Module
    functions: dict  # line number -> the innermost function that holds it

    @classmethod
    def parse(cls, text: str) -> "Source":
        tree, functions = ast.parse(text), {}
        for node in ast.walk(tree):  # breadth first: an inner function overwrites its outer one
            if isinstance(node, FUNCTIONS):
                functions.update(dict.fromkeys(range(node.lineno, node.end_lineno + 1), node.name))
        return cls(text.splitlines(), tree, functions)

    def site(self, line: int, value) -> tuple:
        return self.functions.get(line, "<module>"), value, line


def scan() -> dict:
    """Every module of the package by name, parsed once; fails unless the files found are
    exactly `schattenframes._MODULES` and `__init__`, so no guard can pass over no file."""
    paths = {path.stem: path for path in PACKAGE.glob("*.py")}
    assert sorted(paths) == sorted({*schattenframes._MODULES, "__init__"}), sorted(paths)
    return {name: Source.parse(path.read_text()) for name, path in sorted(paths.items())}


SOURCES = scan()


def text(pattern: str) -> Callable:
    """A detector of the lines that match `pattern`, comments and docstrings included."""
    regex = re.compile(pattern)
    return lambda source: [
        source.site(n, line.strip()) for n, line in enumerate(source.lines, 1) if regex.search(line)
    ]


def is_p(node) -> bool:
    """Whether an exponent is p or q: bare (p), an attribute (self.p) or in a sum (p + eps)."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return is_p(node.left) or is_p(node.right)
    return getattr(node, "id", getattr(node, "attr", None)) in ("p", "q")


def power_sums(source) -> list:
    """The `np.sum` calls with an argument that raises something to p or q (see is_p)."""
    return [
        source.site(call.lineno, ast.unparse(call))
        for call in ast.walk(source.tree)
        if isinstance(call, ast.Call) and ast.unparse(call.func) == "np.sum" and any(
            isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) and is_p(node.right)
            for node in ast.walk(call)
        )
    ]


def small_floats(source) -> list:
    """The float literals x with 0 < |x| < 1e-2."""
    return [
        source.site(node.lineno, node.value)
        for node in ast.walk(source.tree)
        if isinstance(node, ast.Constant) and type(node.value) is float
        and 0 < abs(node.value) < 1e-2
    ]


def tolerance_parameters(source) -> list:
    """The parameters named `tol` or `tolerance`, each with the function or lambda taking it."""
    return [
        (getattr(function, "name", "<lambda>"), param.arg, param.lineno)
        for function in ast.walk(source.tree)
        if isinstance(function, (*FUNCTIONS, ast.Lambda))
        for param in ast.walk(function.args)
        if isinstance(param, ast.arg) and param.arg in ("tol", "tolerance")
    ]


def union_members(annotation) -> list:
    """The members of a union annotation X | Y | ..., or the annotation alone."""
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        return union_members(annotation.left) + union_members(annotation.right)
    return [annotation]


def list_unions(source) -> list:
    """The functions of `__all__` whose return annotation joins a type with a list."""
    public = {
        name
        for node in source.tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__"
        for name in ast.literal_eval(node.value)
    }
    return [
        (node.name, ast.unparse(node.returns), node.lineno)
        for node in ast.walk(source.tree)
        if isinstance(node, FUNCTIONS) and node.name in public
        and len(members := union_members(node.returns)) > 1
        and any(ast.unparse(getattr(member, "value", member)) == "list" for member in members)
    ]


class Rule(NamedTuple):
    detect: Callable  # Source -> [(function, value, line)] of the sites it matches
    owners: list  # the (module, function) sites that hold the rule
    plant: str  # its lines marked "# fires", and no others, breach the rule
    reason: str
    allowed: dict = {}  # (module, function, value) -> why that match breaches nothing

    @property
    def excused(self) -> list:
        """The owners and the allowed entries: every key that excuses a match."""
        return [*self.owners, *self.allowed]


RULES = {
    "draw": Rule(
        text("standard_normal"), [("linalg", "_gaussian")],
        "z = rng.standard_normal(3)  # fires\nz = rng.normal(size=3)",
        "Trial frames, ONBs, probes and operators are reproducible from their seeds only while "
        "each complex draw takes the real part, then the imaginary part: one helper, one order.",
    ),
    "witness": Rule(
        text("_witness_budget"), [("linalg", ANY), ("criteria", ANY)],
        "b = _witness_budget(s, p)  # fires\nb = _verdict(x, y)",
        "The rounding allowance at an exact witness basis; `criteria._witness` judges every "
        "witness by it, and a module that budgets one itself holds a second copy.",
    ),
    "structure": Rule(
        text(r"hermitian_defect|STRUCTURAL_TOL|eigvalsh|shape\[0\] != \w+\.shape\[1\]|"
             r"np\.ndim\(p\)"),
        [("linalg", ANY)],
        "d = hermitian_defect(t)  # fires\nw = eigvalsh(s)  # fires\nw = eigh(s)\n"
        "sq = t.shape[0] != t.shape[1]  # fires\ngrid = np.ndim(p)  # fires",
        "`linalg` judges square, Hermitian and PSD by one scale-relative rule beside its error "
        "analysis; a test elsewhere brings its own tolerance, which fails at small or large scale.",
    ),
    "power": Rule(
        power_sums, [("linalg", "_power_sum")],
        "t = np.sum(w * np.abs(x) ** p, axis=-1)  # fires\nnp.sum(s**2)\nnp.sum(x**q)  # fires\n"
        "np.sum(c * v**self.p)  # fires\nnp.sum(v ** (self.p + eps))  # fires\nnp.sum(v**self.n)",
        "One helper raises the terms to p, sums them and names an overflow, so a rescaling "
        "changes one function.",
    ),
    "checked-sums": Rule(
        text("_checked_sums"), [],
        "t = _checked_sums(x, p)  # fires\nt = _power_sum(x, p)",
        "`linalg._power_sum` replaced `_checked_sums`, which stays gone.",
    ),
    "budget": Rule(
        small_floats, [("linalg", ANY)],
        "budget = 1e-7  # fires\nfloor = max(x, 1e-300)\nstep = 1e-2",
        "`linalg` names each verdict budget once beside its source and judges by `_verdict`; a "
        "bare float 0 < |x| < 1e-2 elsewhere is a budget with no stated source.",
        {
            (ANY, ANY, 1e-300): "underflow floor under a ratio or a scale",
            ("bergman", "_pair_distances", 1e-16): "clips rho below 1 so arctanh stays finite",
            ("bergman", "r_lattice", 1e-9): "relative padding of the ring spacing, an input",
            ("bergman", "r_lattice", 1e-12): "absolute padding of the ring spacing, an input",
            ("frames", "_phase_fix", 1e-14): "pivot test of the ONB phase convention",
            ("campaigns", "run_bergman", 1e-9): "radius 1 - 1e-9 of the orthonormality quadrature",
        },
    ),
    "tolerance": Rule(
        tolerance_parameters, [("linalg", "_verdict")],
        "def judge(x, tol=0.5): ...  # fires\nf = lambda y, tolerance: y  # fires\n"
        "def ok(x, atol): ...",
        "Every certificate is judged at a budget named in `linalg`; only `_verdict`, which its "
        "callers give one of them, takes a tolerance as a parameter.",
    ),
    "shape": Rule(
        list_unions, [],
        '__all__ = ["one", "two", "many", "pair"]\ndef one(p) -> R | list[R]: ...  # fires\n'
        "def two(p) -> R | list: ...  # fires\ndef many(ps) -> list[R]: ...\n"
        "def pair(p) -> tuple[F, R]: ...\ndef _kernel(ps) -> R | list: ...",
        "Each statement is about one operator, one frame and one p; a public function returning "
        "X or list[X] makes every caller switch on shape, so batches run in private kernels.",
    ),
    "constructor": Rule(
        text(r"\bFrame\("), [("frames", "make_frame")],
        "f = Frame(v, 1.0, 2.0)  # fires\nf = make_frame(v)\ng = ScaledCopiesFrame(t)",
        "`make_frame` copies the vectors read-only and measures the bounds with one eigh, so no "
        "frame carries bounds it was not measured with.",
    ),
}


def covers(key: tuple, site: tuple) -> bool:
    """Whether an owner (module, function) or an allowed (module, function, value), in which
    ANY matches anything, covers the site (module, function, value)."""
    return all(k in (ANY, s) for k, s in zip(key, site))


def matches(rule: Rule, sources: dict, excused: list) -> list:
    """((module, function, value), line) of each site of `sources` that `rule` detects
    and no key of `excused` covers."""
    return [
        ((m, f, v), n)
        for m, source in sources.items()
        for f, v, n in rule.detect(source)
        if not any(covers(key, (m, f, v)) for key in excused)
    ]


HELD = [(name, key) for name, rule in RULES.items() for key in rule.excused]
SITES = [(name, module) for name in RULES for module in SOURCES]


@pytest.mark.parametrize("name,key", HELD, ids=[f"{n}-{'.'.join(map(str, k))}" for n, k in HELD])
def test_every_owner_holds_its_rule(name, key):
    """Each owner still matches; each allowed entry still excuses a match of no owner."""
    rule = RULES[name]
    found = matches(rule, SOURCES, rule.owners if key in rule.allowed else [])
    assert any(covers(key, site) for site, _ in found)


@pytest.mark.parametrize("name,module", SITES, ids=[f"{n}-{m}" for n, m in SITES])
def test_no_other_site_matches(name, module):
    rule = RULES[name]
    hits = matches(rule, {module: SOURCES[module]}, rule.excused)
    assert not hits


@pytest.mark.parametrize("name", RULES)
def test_every_detector_fires_on_its_plant(name):
    """Read as a module that owns nothing, the plant breaches on exactly its marked lines."""
    rule, plant = RULES[name], Source.parse(RULES[name].plant)
    marked = {n for n, line in enumerate(plant.lines, 1) if line.endswith("# fires")}
    hits = matches(rule, {"plant": plant}, rule.excused)
    assert marked and {n for _, n in hits} == marked
