"""In-memory spans around pmba's public functions, for the traced benchmark run.

The program itself is not changed. A traced run replaces each target
function at every module attribute that refers to it (for example
``pmba.striping.build_message_matrix`` is the name ``striping`` calls, and
``pmba.shardio.read_shard`` is the name ``cli`` calls), so every call goes
through a wrapper that records one span: name, start, end, parent span and
op id. Spans stay in memory and are written out when the process ends.

Run as a script, this file is the traced stand-in for ``python -m pmba.cli``:

    PERFBENCH_SPANS=spans.json PERFBENCH_OP=3 PERFBENCH_PARENT=op3 \\
        python perfbench/tracing.py encode file.bin --out-dir shards --k 3 --delta 2 --n 7
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from contextlib import contextmanager

# (module, attribute) of each traced function; the span name is the module's
# last component plus the function name.
TARGETS = (
    ("pmba.striping", "bytes_to_source"),
    ("pmba.striping", "source_to_bytes"),
    ("pmba.striping", "encode_matrix"),
    ("pmba.striping", "encode_stripes"),
    ("pmba.striping", "reconstruct_stripes"),
    ("pmba.striping", "repair_stripes"),
    ("pmba.encoder", "build_message_matrix"),
    ("pmba.encoder", "encode_all"),
    ("pmba.matrix", "invert"),
    ("pmba.reconstructor", "reconstruct"),
    ("pmba.repairer", "make_repair_bundle"),
    ("pmba.repairer", "repair"),
    ("pmba.shardio", "read_shard"),
    ("pmba.shardio", "write_shard"),
    ("pmba.shardio", "payload_crc"),
    ("pmba.cluster", "Cluster.store"),
    ("pmba.cluster", "Cluster.run_repair"),
    ("pmba.cluster", "Cluster.read_all"),
)


def span_name(module_name: str, attr: str) -> str:
    return f"{module_name.rsplit('.', 1)[1]}.{attr.rsplit('.', 1)[-1]}"


SPAN_NAMES = tuple(span_name(m, a) for m, a in TARGETS)


class Tracer:
    """Records nested spans of one process; ids carry a per-process prefix."""

    def __init__(self, prefix: str = "", root_parent=None, op=None):
        self.prefix = prefix
        self.root_parent = root_parent
        self.op = op
        self.spans = []  # (id, name, start_ns, end_ns, parent_id, op)
        self._stack = []
        self._count = 0

    @contextmanager
    def span(self, name: str):
        sid = f"{self.prefix}{self._count}"
        self._count += 1
        parent = self._stack[-1] if self._stack else self.root_parent
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield sid
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, name, start, end, parent, self.op))

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def install(self):
        """Wrap every target at every pmba attribute bound to it; returns an undo list."""
        undo = []
        for module_name, _ in TARGETS:
            importlib.import_module(module_name)
        modules = [m for n, m in list(sys.modules.items()) if n == "pmba" or n.startswith("pmba.")]
        for module_name, attr in TARGETS:
            module = sys.modules[module_name]
            name = span_name(module_name, attr)
            if "." in attr:  # a method: wrap it on its class
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                fn = cls.__dict__[meth]
                setattr(cls, meth, self.wrap(fn, name))
                undo.append((cls, meth, fn))
                continue
            fn = getattr(module, attr)
            wrapper = self.wrap(fn, name)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapper)
                        undo.append((m, key, fn))
        return undo

    @staticmethod
    def uninstall(undo) -> None:
        for owner, key, fn in reversed(undo):
            setattr(owner, key, fn)


def span_dicts(spans):
    keys = ("id", "name", "start_ns", "end_ns", "parent", "op")
    return [dict(zip(keys, s)) for s in spans]


def aggregate(spans) -> dict:
    """name -> [total_s, self_s, calls]; self time excludes direct child spans."""
    child_ns = {}
    for s in spans:
        if s["parent"] is not None:
            child_ns[s["parent"]] = child_ns.get(s["parent"], 0) + s["end_ns"] - s["start_ns"]
    out = {}
    for s in spans:
        dur = s["end_ns"] - s["start_ns"]
        agg = out.setdefault(s["name"], [0.0, 0.0, 0])
        agg[0] += dur / 1e9
        agg[1] += (dur - child_ns.get(s["id"], 0)) / 1e9
        agg[2] += 1
    return out


def _traced_cli(argv) -> int:
    import pmba.cli

    op = int(os.environ["PERFBENCH_OP"])
    tracer = Tracer(prefix=f"{op}/", root_parent=os.environ["PERFBENCH_PARENT"], op=op)
    tracer.install()
    try:
        with tracer.span("cli.main"):
            return pmba.cli.main(argv)
    finally:
        with open(os.environ["PERFBENCH_SPANS"], "w") as fh:
            json.dump(span_dicts(tracer.spans), fh)


if __name__ == "__main__":
    sys.exit(_traced_cli(sys.argv[1:]))
