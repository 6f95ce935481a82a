"""Benchmark of the schattenframes command line, one request per fresh process.

    python3 perfbench/run.py --workload verify|estimate|bergman --seed N \
        --seconds S --trace 0|1

Run it from the root of a source checkout (it runs `src/` with PYTHONPATH).
One client sends requests in a closed loop: each request is a fresh
`python -m schattenframes.cli ...` process, started only after the previous
one has exited, so every request pays the interpreter and import start-up a
CLI user pays, and no in-process memo can carry over between requests.

A run is: set-up (reference requests, import timing, input files), then a
timed section of whole request cycles that ends at the first cycle boundary
after --seconds.  Every request's output is checked against
`perfbench/reference.json` (exit code, record tags and count, verdicts).
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; with --trace 0 the metrics are the
end-to-end ones, with --trace 1 the per-layer ones from `traced_cli.py`.
A results file with the environment stamp and every request is written to
`perfbench/out/`.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import collections
import json
import marshal
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"
TRACED_CLI = BENCH / "traced_cli.py"

#: Request seeds are this far apart: a verify or bergman request with seed s
#: uses trial seeds s .. s + 2199, so no two requests share a trial seed.
SEED_STRIDE = 10_000
#: Request slots per benchmark seed; request k of run seed n has slot n * MAX_REQUESTS + k.
MAX_REQUESTS = 10_000
#: Seed of the reference requests; request seeds start at SEED_STRIDE, above its range.
REFERENCE_SEED = 0

#: Import timings taken before the timed section, and at most this many
#: more spread over it (one per eighth of --seconds, at cycle boundaries,
#: with the clock paused), so that setup_s sees the same machine as the requests.
IMPORT_SAMPLES_BEFORE = 3
IMPORT_SAMPLES_DURING = 8
#: A request still running after this many seconds is killed and counts as failed;
#: failed requests enter the latency median at this value (worse than any success).
REQUEST_LIMIT_S = 120.0
#: No request starts after this many seconds of a run, so the run ends within 180 s.
RUN_LIMIT_S = 150.0

#: Every request runs BLAS on one thread. The program is single-threaded
#: Python; multi-threaded OpenBLAS was no faster on these sizes on 2 cores,
#: and its spinning threads made estimate requests up to 20x slower whenever
#: another process ran.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

ESTIMATE_DIM = 192
ESTIMATE_P = 1.5
ESTIMATE_KINDS = ("gaussian", "psd", "graded")

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "success_ratio": "ratio",
}

SUMS = ("criteria.sum_norms", "criteria.sum_diag", "criteria.sum_double", "criteria.weighted_sum")
CERTIFY = ("criteria.certify_norm_formula", "criteria.certify_diag_formula", "criteria.certify_double_formula")

#: Per-layer metric -> (unit, how it is computed from a traced request).
#: "self" sums the self time of the named spans, "calls" counts them, "incl"
#: sums their whole duration, "counter" reads a count made by traced_cli.py,
#: "unique" is distinct argument tuples over calls.
PER_LAYER = {
    "cli.import_s": ("s", ("import",)),
    "cli.self_s": ("s", ("self", "cli.")),
    "frames.self_s": ("s", ("self", "frames.")),
    "frames.random_onb.calls": ("count", ("calls", "frames.random_onb")),
    "frames.random_onb.unique_ratio": ("ratio", ("unique", "frames.random_onb")),
    "frames.random_frame.calls": ("count", ("calls", "frames.random_frame")),
    "frames.random_frame.unique_ratio": ("ratio", ("unique", "frames.random_frame")),
    "frames.make_frame.calls": ("count", ("calls", "frames.make_frame")),
    "frames.make_frame.self_s": ("s", ("self", "frames.make_frame")),
    "frames.canonical_parseval.calls": ("count", ("calls", "frames.canonical_parseval")),
    "frames.certify_synthesis.self_s": ("s", ("self", "frames.certify_synthesis")),
    "linalg.self_s": ("s", ("self", "linalg.")),
    "linalg.svd.calls": ("count", ("calls", "linalg.svd")),
    "linalg.svd.self_s": ("s", ("self", "linalg.svd")),
    "linalg.svd.elements": ("count", ("counter", "linalg.svd.elements")),
    "linalg.hermitian_eigen.calls": ("count", ("calls", "linalg.hermitian_eigen")),
    "linalg.hermitian_eigen.self_s": ("s", ("self", "linalg.hermitian_eigen")),
    "linalg.as_matrix.calls": ("count", ("calls", "linalg.as_matrix")),
    "criteria.self_s": ("s", ("self", "criteria.")),
    "criteria.sums.calls": ("count", ("calls", *SUMS)),
    "criteria.sums.self_s": ("s", ("self", *SUMS)),
    "criteria.certify.self_s": ("s", ("self", *CERTIFY)),
    "criteria.endpoint_suites.self_s": ("s", ("self", "criteria.endpoint_suites")),
    "criteria.double_sum_comparison.calls": ("count", ("calls", "criteria.double_sum_comparison")),
    "constructions.self_s": ("s", ("self", "constructions.")),
    "bergman.self_s": ("s", ("self", "bergman.")),
    "bergman.subharmonicity_check.self_s": ("s", ("self", "bergman.subharmonicity_check")),
    "bergman.subharmonicity_check.kernel_evals": ("count", ("counter", "bergman.subharmonicity_check.kernel_evals")),
    "bergman.quadrature.kernel_evals": ("count", ("counter", "bergman.quadrature.kernel_evals")),
    "bergman.disk_quadrature.calls": ("count", ("calls", "bergman.disk_quadrature")),
    "bergman.disk_quadrature.unique_ratio": ("ratio", ("unique", "bergman.disk_quadrature")),
    "bergman.r_lattice.self_s": ("s", ("self", "bergman.r_lattice")),
    "bergman.min_pairwise_separation.pairs": ("count", ("counter", "bergman.min_pairwise_separation.pairs")),
    "campaigns.self_s": ("s", ("self", "campaigns.")),
    "campaigns.records": ("count", ("counter", "campaigns.records")),
    "campaigns.report_write_s": ("s", ("incl", "campaigns.CampaignReport.write")),
    "serialization.self_s": ("s", ("self", "serialization.")),
    "serialization.read_matrix.self_s": ("s", ("self", "serialization.read_matrix")),
    "serialization.bytes_read": ("B", ("counter", "serialization.bytes_read")),
    "serialization.bytes_written": ("B", ("counter", "serialization.bytes_written")),
    "serialization.files_written": ("count", ("counter", "serialization.files_written")),
    "trace.overhead_s": ("s", ("overhead",)),
    "trace.accounted_ratio": ("ratio", ("accounted",)),
    "report.max_rel_drift": ("ratio", ("drift",)),
}

#: The traced run checks that import time plus the layer self times cover
#: at least this share of the traced request latency (the rest is
#: interpreter shutdown and writing the spans).
MIN_ACCOUNTED = 0.85


# ---------------------------------------------------------------- seeds and inputs


def request_seed(run_seed: int, k: int) -> int:
    """Seed of timed request k (k >= 0) of a run with benchmark seed `run_seed`."""
    if not 0 <= k < MAX_REQUESTS:
        raise ValueError(f"request index {k} outside [0, {MAX_REQUESTS})")
    return SEED_STRIDE * (1 + run_seed * MAX_REQUESTS + k)


def trial_seed_ranges(seed: int) -> list[range]:
    """Seed ranges a verify or bergman request with `seed` draws from.

    verify: operators and frames seed + i and seed + 1000 + i / seed + 2000 + i
    for i < 200, fixed operators seed + 11/22/33; bergman: seed + 500 + i and
    seed + 999.
    """
    return [
        range(seed, seed + 200),
        range(seed + 500, seed + 505),
        range(seed + 999, seed + 1000),
        range(seed + 1000, seed + 1200),
        range(seed + 2000, seed + 2200),
    ]


def make_matrix(kind: str, dim: int, seed: int) -> np.ndarray:
    """Seeded estimate input: complex Gaussian, PSD, or graded Q diag(2^-n) Q*.

    The PSD kind is a Wishart matrix G G*/(2 dim) with a dim x 2 dim factor,
    so its spectrum stays inside [0.08, 3]. A square factor gives eigenvalues
    near 0, which fail the Gram-route SVD on a few requests that depend on
    the seed. The graded kind measures that SVD defect on every request.
    """
    rng = np.random.default_rng(seed)
    width = 2 * dim if kind == "psd" else dim
    g = (rng.standard_normal((dim, width)) + 1j * rng.standard_normal((dim, width))) / np.sqrt(2.0)
    if kind == "gaussian":
        return g
    if kind == "psd":
        return g @ g.conj().T / width
    if kind == "graded":
        q, r = np.linalg.qr(g)
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        return (q * 2.0 ** -np.arange(dim)) @ q.conj().T
    raise ValueError(f"unknown matrix kind {kind!r}")


def write_matrix_file(path: Path, m: np.ndarray) -> None:
    """Write the package's matrix exchange format (row-major re/im parts)."""
    payload = {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "re": m.real.ravel().tolist(),
        "im": m.imag.ravel().tolist(),
    }
    path.write_text(json.dumps(payload) + "\n")


# ---------------------------------------------------------------- workloads


@dataclass
class Request:
    """One CLI invocation: its kind (the reference it is checked against) and arguments."""

    kind: str
    seed: int
    argv: list[str]


class Workload:
    """A closed-loop request stream; a cycle is the smallest whole mix of kinds."""

    name = ""
    kinds: tuple[str, ...] = ()

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir

    @property
    def cycle(self) -> int:
        return len(self.kinds)

    def request(self, seed: int, k: int) -> Request:
        raise NotImplementedError

    def prepare(self, requests: list[Request]) -> None:
        """Write the input files of `requests` (set-up, outside the timed section)."""


class Verify(Workload):
    name = "verify"
    kinds = ("verify",)

    def request(self, seed, k):
        return Request("verify", seed, ["verify-theorems", "--seed", str(seed)])


class Bergman(Workload):
    name = "bergman"
    kinds = ("bergman",)

    def request(self, seed, k):
        return Request("bergman", seed, ["bergman", "--dim", "32", "--seed", str(seed)])


class Estimate(Workload):
    name = "estimate"
    kinds = ESTIMATE_KINDS

    def path(self, seed: int) -> Path:
        return self.work_dir / f"matrix_{seed}.json"

    def request(self, seed, k):
        argv = ["norm-estimate", str(self.path(seed)), "--p", str(ESTIMATE_P),
                "--strategy", "singular_basis_exact"]
        return Request(self.kinds[k % self.cycle], seed, argv)

    def prepare(self, requests):
        for req in requests:
            write_matrix_file(self.path(req.seed), make_matrix(req.kind, ESTIMATE_DIM, req.seed))


WORKLOADS = {cls.name: cls for cls in (Verify, Estimate, Bergman)}


def reference_requests(workload: Workload) -> list[Request]:
    """One request per kind at the fixed reference seeds (below SEED_STRIDE)."""
    return [workload.request(REFERENCE_SEED + k, k) for k in range(workload.cycle)]


# ---------------------------------------------------------------- processes


@dataclass
class Outcome:
    """What one request did, as seen from outside the process."""

    kind: str
    seed: int
    traced: bool
    latency_s: float
    max_rss_mib: float
    exit_code: int
    stderr_tail: str
    records: list | None
    spans_file: Path | None = None
    status: str = ""  # ok, known_failure or wrong
    detail: str = ""

    @property
    def succeeded(self) -> bool:
        return self.status == "ok"


def child_env(extra: dict | None = None) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), **BLAS_ENV)
    env.update(extra or {})
    return env


def spawn(argv: list[str], cwd: Path, env: dict, limit_s: float) -> tuple[float, float, int]:
    """Run `python argv` to completion; return (latency, max RSS in MiB, exit code).

    The child is reaped with wait4 so its own rusage is read, and a timer
    kills it when it outlives `limit_s`.
    """
    with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=cwd, env=env,
            stdin=subprocess.DEVNULL, stdout=out, stderr=err,
        )
        reaped = threading.Event()

        def kill():
            if not reaped.is_set():
                os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(limit_s, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            reaped.set()
            timer.cancel()
            timer.join()
        latency = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return latency, usage.ru_maxrss / 1024.0, proc.returncode


def run_request(req: Request, run_dir: Path, index: int, traced: bool, deadline: float) -> Outcome:
    """Run one request in its own directory and collect its report records."""
    req_dir = run_dir / f"req{index:05d}"
    req_dir.mkdir(parents=True)
    argv = [*req.argv, "--out", str(req_dir / "report")]
    extra = {}
    spans_file = None
    if traced:
        spans_file = req_dir / "spans.marshal"
        extra = {"PERFBENCH_SPANS": str(spans_file), "PERFBENCH_REQUEST": str(index)}
        argv = [str(TRACED_CLI), *argv]
    else:
        argv = ["-m", "schattenframes.cli", *argv]
    limit = max(1.0, min(REQUEST_LIMIT_S, deadline - time.monotonic()))
    env = child_env(extra)
    if traced:
        env["PERFBENCH_SPAWN"] = repr(time.monotonic())
    latency, rss, code = spawn(argv, req_dir, env, limit)
    stderr = (req_dir / "stderr.txt").read_text(errors="replace")
    records = None
    report = req_dir / "report" / "report.json"
    if report.exists():
        try:
            records = json.loads(report.read_text()).get("records")
        except (json.JSONDecodeError, AttributeError):
            records = None
    if spans_file is not None and not spans_file.exists():
        spans_file = None
    return Outcome(req.kind, req.seed, traced, latency, rss, code, stderr[-400:], records, spans_file)


# ---------------------------------------------------------------- output checks


def verdict_signature(records: list) -> collections.Counter:
    """Multiset of (tag, passed, verdict) over a report's records."""
    return collections.Counter(
        (rec.get("tag"), bool(rec.get("passed", False)), rec.get("verdict")) for rec in records
    )


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def classify(outcome: Outcome, workload_ref: dict) -> None:
    """Set outcome.status from the reference recorded for this workload.

    ok: exit 0 and the same tags, record count and verdicts as the reference.
    known_failure: the exit code and error the reference recorded for this
    kind at the reference commit (a failed request, but not a regression).
    wrong: anything else.
    """
    expected = collections.Counter(
        {tuple(key): n for key, n in workload_ref["expected_verdicts"]}
    )
    ref = workload_ref["kinds"][outcome.kind]
    if outcome.exit_code == 0 and outcome.records is not None:
        got = verdict_signature(outcome.records)
        if got == expected:
            outcome.status = "ok"
            return
        outcome.status = "wrong"
        missing = expected - got
        extra = got - expected
        outcome.detail = f"verdicts differ: missing {dict(missing)}, unexpected {dict(extra)}"
        return
    if ref["exit_code"] != 0 and outcome.exit_code == ref["exit_code"] and ref["error"] in outcome.stderr_tail:
        outcome.status = "known_failure"
        outcome.detail = ref["error"]
        return
    outcome.status = "wrong"
    outcome.detail = f"exit {outcome.exit_code}: {outcome.stderr_tail.strip()[-200:]}"


def _numbers(value, prefix=""):
    """Flatten the numeric leaves of a record into (path, float) pairs."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return
    if isinstance(value, (int, float)):
        yield prefix, float(value)
    elif isinstance(value, dict):
        for key in sorted(value):
            yield from _numbers(value[key], f"{prefix}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _numbers(item, f"{prefix}[{i}]")


def max_rel_drift(records: list, ref_records: list) -> float:
    """Largest |a - b| / max(|a|, |b|) over numeric fields present in both reports."""
    ours = dict(_numbers(records))
    drift = 0.0
    for path, ref_value in _numbers(ref_records):
        value = ours.get(path)
        if value is None:
            continue
        scale = max(abs(value), abs(ref_value))
        if scale > 0 and math.isfinite(scale):
            drift = max(drift, abs(value - ref_value) / scale)
    return drift


# ---------------------------------------------------------------- metrics


def latency_p50(outcomes: list[Outcome]) -> float:
    """Median latency with every failed request counted as REQUEST_LIMIT_S."""
    return statistics.median(o.latency_s if o.succeeded else REQUEST_LIMIT_S for o in outcomes)


def end_to_end(setup_s: float, outcomes: list[Outcome], timed_s: float) -> dict:
    successes = sum(o.succeeded for o in outcomes)
    return {
        "setup_s": setup_s,
        "op_p50_s": latency_p50(outcomes),
        "ops_per_s": successes / timed_s,
        "peak_rss_mib": max(o.max_rss_mib for o in outcomes),
        "success_ratio": successes / len(outcomes),
    }


def load_spans(path: Path) -> dict:
    with open(path, "rb") as fh:
        return marshal.load(fh)


def request_layers(trace: dict) -> dict:
    """Per-name self time, inclusive time and calls of one traced request."""
    names = trace["names"]
    spans = np.array([s[:4] for s in trace["spans"]], dtype=float).reshape(-1, 4)
    name_idx = spans[:, 0].astype(int)
    duration = spans[:, 2] - spans[:, 1]
    parent = spans[:, 3].astype(int)
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(spans))
    self_time = duration - child_time
    width = len(names)
    return {
        "names": names,
        "self": np.bincount(name_idx, weights=self_time, minlength=width),
        "incl": np.bincount(name_idx, weights=duration, minlength=width),
        "calls": np.bincount(name_idx, minlength=width),
        "self_total": float(np.sum(self_time)),
        "import_s": trace["main_entry"] - trace["spawn"],
        "counters": trace["counters"],
        "distinct": trace["distinct"],
    }


def _select(names: list[str], patterns: tuple[str, ...]) -> list[int]:
    """Indices of names equal to a pattern, or under it when it ends with '.'."""
    return [
        i for i, name in enumerate(names)
        if any(name == p or (p.endswith(".") and name.startswith(p)) for p in patterns)
    ]


def layer_value(spec: tuple, layers: dict) -> float:
    how, *args = spec
    if how == "import":
        return layers["import_s"]
    if how == "counter":
        return float(layers["counters"].get(args[0], 0))
    if how == "unique":
        calls = float(np.sum(layers["calls"][_select(layers["names"], (args[0],))]))
        return layers["distinct"][args[0]] / calls if calls else 1.0
    return float(np.sum(layers[how][_select(layers["names"], tuple(args))]))


def per_layer(traced: list[Outcome], untraced: list[Outcome], drift: float) -> dict:
    """Mean per traced request of every per-layer metric, plus the overhead and accounting."""
    layers = [request_layers(load_spans(o.spans_file)) for o in traced]
    metrics = {}
    for name, (_unit, spec) in PER_LAYER.items():
        if spec[0] in ("overhead", "accounted", "drift"):
            continue
        metrics[name] = statistics.fmean(layer_value(spec, lay) for lay in layers)
    accounted = sum(lay["import_s"] + lay["self_total"] for lay in layers)
    metrics["trace.accounted_ratio"] = accounted / sum(o.latency_s for o in traced)
    metrics["trace.overhead_s"] = latency_p50(traced) - latency_p50(untraced)
    metrics["report.max_rel_drift"] = drift
    return {name: metrics[name] for name in PER_LAYER}


# ---------------------------------------------------------------- environment


def git_commit() -> str:
    """Commit of the checkout from .git files, without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def environment() -> dict:
    config = np.show_config(mode="dicts")
    deps = config.get("Build Dependencies", {})
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": {k: deps.get("blas", {}).get(k) for k in ("name", "version", "openblas configuration")},
        "lapack": {k: deps.get("lapack", {}).get(k) for k in ("name", "version")},
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_ENV,
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


# ---------------------------------------------------------------- the run


def program_importable(run_dir: Path) -> bool:
    """Import the package once (also compiling its bytecode) before anything is timed."""
    probe = run_dir / "import_probe"
    probe.mkdir()
    _, _, code = spawn(["-c", "import schattenframes.cli"], probe, child_env(), REQUEST_LIMIT_S)
    return code == 0


def time_import(cwd: Path) -> float:
    """Seconds for a fresh process to import schattenframes and exit."""
    cwd.mkdir()
    latency, _, code = spawn(["-c", "import schattenframes"], cwd, child_env(), REQUEST_LIMIT_S)
    if code != 0:
        raise RuntimeError(f"import schattenframes failed with exit code {code}")
    return latency


@dataclass
class RunResult:
    workload: str
    seed: int
    seconds: int
    trace: bool
    setup_s: float = 0.0
    import_samples: list[float] = field(default_factory=list)
    timed_s: float = 0.0
    drift: float = 0.0
    reference: list[Outcome] = field(default_factory=list)
    outcomes: list[Outcome] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return all(o.status != "wrong" for o in (*self.reference, *self.outcomes))


def run(workload_name: str, seed: int, seconds: int, trace: bool, run_dir: Path) -> RunResult:
    """Set up, then send whole request cycles until `seconds` have passed."""
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    reference = load_reference()["workloads"][workload_name]
    workload = WORKLOADS[workload_name](run_dir / "inputs")
    workload.work_dir.mkdir(parents=True)
    result = RunResult(workload_name, seed, seconds, trace)

    # Set-up: reference requests (they also warm the file cache), import timing, inputs.
    refs = reference_requests(workload)
    workload.prepare(refs)
    for i, req in enumerate(refs):
        outcome = run_request(req, run_dir / "reference", i, False, deadline)
        classify(outcome, reference)
        ref_records = reference["kinds"][req.kind]["records"]
        if outcome.records is not None and ref_records is not None:
            result.drift = max(result.drift, max_rel_drift(outcome.records, ref_records))
        result.reference.append(outcome)
    imports = [time_import(run_dir / f"import{i}") for i in range(IMPORT_SAMPLES_BEFORE)]
    cycle_s = sum(o.latency_s for o in result.reference)
    planned = workload.cycle * math.ceil(seconds / cycle_s + 1)
    pending = [workload.request(request_seed(seed, k), k) for k in range(planned)]
    workload.prepare(pending)

    # Timed section: closed loop, one client; input top-ups and import timings are not timed.
    k = 0
    paused = 0.0
    start = time.perf_counter()
    while True:
        cycle_traced = trace and (k // workload.cycle) % 2 == 1
        for _ in range(workload.cycle):
            if k == len(pending):
                t0 = time.perf_counter()
                more = [workload.request(request_seed(seed, j), j) for j in range(k, k + 4 * workload.cycle)]
                workload.prepare(more)
                pending.extend(more)
                paused += time.perf_counter() - t0
            outcome = run_request(pending[k], run_dir / "timed", k, cycle_traced, deadline)
            classify(outcome, reference)
            result.outcomes.append(outcome)
            k += 1
        elapsed = time.perf_counter() - start - paused
        taken = len(imports) - IMPORT_SAMPLES_BEFORE
        if taken < IMPORT_SAMPLES_DURING and elapsed >= (taken + 1) * seconds / IMPORT_SAMPLES_DURING:
            t0 = time.perf_counter()
            imports.append(time_import(run_dir / f"import{len(imports)}"))
            paused += time.perf_counter() - t0
        enough = elapsed >= seconds and (not trace or k >= 2 * workload.cycle)
        if enough or time.monotonic() - started > RUN_LIMIT_S:
            break
    result.import_samples = imports
    result.setup_s = statistics.median(imports)
    result.timed_s = time.perf_counter() - start - paused
    return result


def results_record(result: RunResult, metrics: dict, units: dict, extra: dict) -> dict:
    def describe(o: Outcome) -> dict:
        return {
            "kind": o.kind, "seed": o.seed, "traced": o.traced,
            "latency_s": o.latency_s, "max_rss_mib": o.max_rss_mib,
            "exit_code": o.exit_code, "status": o.status, "detail": o.detail,
        }

    return {
        "workload": result.workload,
        "seed": result.seed,
        "seconds": result.seconds,
        "trace": result.trace,
        "environment": environment(),
        "correct": result.correct,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
        **extra,
        "timed_s": result.timed_s,
        "import_samples_s": result.import_samples,
        "reference_requests": [describe(o) for o in result.reference],
        "requests": [describe(o) for o in result.outcomes],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not (SRC / "schattenframes" / "cli.py").is_file():
        print(f"error: no schattenframes sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    run_dir = OUT / f"run-{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    try:
        if not program_importable(run_dir):
            print("error: `import schattenframes.cli` fails", file=sys.stderr)
            return 2
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), run_dir)
        failed = [o for o in result.outcomes if not o.succeeded]
        extra = {"fail_ratio": len(failed) / len(result.outcomes), "report.max_rel_drift": result.drift}
        if args.trace:
            traced = [o for o in result.outcomes if o.traced and o.spans_file is not None]
            untraced = [o for o in result.outcomes if not o.traced]
            if not traced:
                print("error: no traced request left spans", file=sys.stderr)
                return 2
            metrics = per_layer(traced, untraced, result.drift)
            units = {name: unit for name, (unit, _) in PER_LAYER.items()}
            accounted = metrics["trace.accounted_ratio"]
            if accounted < MIN_ACCOUNTED:
                print(f"warning: import plus layer self time covers only {accounted:.1%} "
                      "of traced request latency", file=sys.stderr)
        else:
            metrics = end_to_end(result.setup_s, result.outcomes, result.timed_s)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    record = results_record(result, metrics, units, extra)
    results_file = OUT / f"results-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results_file.write_text(json.dumps(record, indent=1) + "\n")
    for o in (*result.reference, *result.outcomes):
        if o.status == "wrong":
            print(f"WRONG {o.kind} seed={o.seed}: {o.detail}", file=sys.stderr)
    shown = {**{name: (value, units[name]) for name, value in metrics.items()},
             **{name: (value, "ratio") for name, value in extra.items() if name not in metrics}}
    for name, (value, unit) in shown.items():
        print(f"{args.workload:9s} {name:45s} {value:.6g} {unit}")
    print(f"results written to {results_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": len(result.outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
