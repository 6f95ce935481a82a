"""Run one schattenframes CLI request with every public function traced.

    PERFBENCH_SPAWN=<monotonic time> PERFBENCH_SPANS=<file> PERFBENCH_REQUEST=<id> \
        PYTHONPATH=src python perfbench/traced_cli.py <cli arguments>

The package is traced from outside: after import, every public function of
the layer modules is replaced by a wrapper in each module namespace that binds
it (so `from .frames import random_onb` aliases in `campaigns` and `criteria`
are traced too), as is `CampaignReport.write`.  A wrapper records one span
(name, start, end, parent span, request id) per call, plus a few counts
computed from the arguments.  Spans stay in memory and are written with
`marshal` after `cli.main` returns; `run.py` turns them into per-layer self
times.  The process exits with `cli.main`'s exit code.
"""

from __future__ import annotations

import functools
import inspect
import marshal
import os
import sys
import time

import numpy as np

import schattenframes
from schattenframes import (
    bergman,
    campaigns,
    cli,
    constructions,
    criteria,
    frames,
    linalg,
    serialization,
)

LAYERS = (linalg, frames, criteria, constructions, bergman, campaigns, serialization, cli)

#: Functions whose distinct argument tuples are counted (useful work over calls).
KEYED = {"frames.random_onb", "frames.random_frame", "bergman.disk_quadrature"}

#: Serialization functions that read or write the file named by their first argument.
READERS = {"serialization.read_matrix", "serialization.read_frame"}
WRITERS = {
    "serialization.write_matrix",
    "serialization.write_frame",
    "serialization.write_growth_csv",
    "serialization.write_nodes_csv",
    "serialization.write_records_csv",
}


class Tracer:
    """Span and counter store for one request (one process)."""

    def __init__(self, request_id: int):
        self.request_id = request_id
        self.names: list[str] = []
        self.spans: list = []  # (name index, start, end, parent span index, request id)
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.keys: dict[str, set] = {name: set() for name in KEYED}

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(amount)

    def wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        spans, stack, clock, rid = self.spans, self.stack, time.perf_counter, self.request_id
        probe = self._probe(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            slot = len(spans)
            spans.append(index)  # replaced by the finished span
            parent = stack[-1] if stack else -1
            stack.append(slot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[slot] = (index, start, clock(), parent, rid)
                stack.pop()
            if probe is not None:
                probe(args, kwargs, result)
            return result

        return traced

    def _probe(self, name: str, fn):
        """Count hook for `name`, run after the call and outside its span."""
        if name in KEYED:
            keys = self.keys[name]
            params = list(inspect.signature(fn).parameters.values())

            def keyed(a, k, r):
                rest = params[len(a):]
                keys.add(a + tuple(k.get(p.name, p.default) for p in rest))

            return keyed
        if name == "linalg.svd":
            return lambda a, k, r: self.count("linalg.svd.elements", np.size(a[0]))
        if name in READERS:
            return lambda a, k, r: self.count("serialization.bytes_read", os.path.getsize(a[0]))
        if name in WRITERS:

            def wrote(a, k, r):
                self.count("serialization.files_written", 1)
                self.count("serialization.bytes_written", os.path.getsize(a[0]))

            return wrote
        if name == "bergman.min_pairwise_separation":

            def pairs(a, k, r):
                n = np.size(a[0])
                self.count("bergman.min_pairwise_separation.pairs", n * (n - 1) // 2)

            return pairs
        if name.startswith("campaigns.run_"):
            return lambda a, k, r: self.count("campaigns.records", len(r.records))
        return None

    def count_kernels(self, fn):
        """Wrap the kernel-coefficient function to count the kernels it evaluates.

        Each point is one kernel evaluation.  It is charged to the stencil
        when the innermost traced call is `subharmonicity_check`, and to the
        quadrature rules when it is `integral_criterion` or `hs_identity_check`
        (whose direct calls evaluate kernels at quadrature nodes).
        """
        owners = {
            "bergman.subharmonicity_check": "bergman.subharmonicity_check.kernel_evals",
            "bergman.integral_criterion": "bergman.quadrature.kernel_evals",
            "bergman.hs_identity_check": "bergman.quadrature.kernel_evals",
        }

        @functools.wraps(fn)
        def counted(points, *args, **kwargs):
            if self.stack:
                counter = owners.get(self.names[self.spans[self.stack[-1]]])
                if counter is not None:
                    self.count(counter, np.size(points))
            return fn(points, *args, **kwargs)

        return counted

    def install(self) -> None:
        """Replace every public layer function in every namespace that binds it."""
        wrapped = {}
        for module in LAYERS:
            layer = module.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrapped[obj] = self.wrap(f"{layer}.{attr}", obj)
        for module in (*LAYERS, schattenframes):
            namespace = vars(module)
            for attr, obj in list(namespace.items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    namespace[attr] = wrapped[obj]
                elif isinstance(obj, dict):  # dispatch tables such as cli._COMMANDS
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in wrapped:
                            obj[key] = wrapped[value]
        bergman._coefficient_matrix = self.count_kernels(bergman._coefficient_matrix)
        report_cls = campaigns.CampaignReport
        report_cls.write = self.wrap("campaigns.CampaignReport.write", report_cls.write)

    def dump(self, path: str, spawn: float, main_entry: float) -> None:
        payload = {
            "request_id": self.request_id,
            "spawn": spawn,
            "main_entry": main_entry,
            "names": self.names,
            "spans": self.spans,
            "counters": self.counters,
            "distinct": {name: len(keys) for name, keys in self.keys.items()},
        }
        with open(path, "wb") as fh:
            marshal.dump(payload, fh)


def main(argv: list[str]) -> int:
    spawn = float(os.environ["PERFBENCH_SPAWN"])
    tracer = Tracer(int(os.environ["PERFBENCH_REQUEST"]))
    tracer.install()
    main_entry = time.monotonic()
    try:
        return cli.main(argv)
    finally:
        tracer.dump(os.environ["PERFBENCH_SPANS"], spawn, main_entry)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
