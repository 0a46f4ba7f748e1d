"""Benchmark of pmba: CLI file pipelines and an in-process Cluster drill.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bulk-327 --seed 1 --seconds 40 --trace 0

Each run sets up its inputs from the seed (several times, reporting the
median), then repeats the workload's cycle of operations for about
--seconds seconds, one CLI subprocess or one library call at a time, and
checks every output exactly. Library calls' and CLI ops' times are
scaled to reference host speed (see probe() and cpu_probe()).
Human-readable lines come first; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end ones named in
BENCHMARK.json; with --trace 1 they are the per-layer ones, taken from
spans recorded around pmba's functions (see tracing.py). NOTES.md says why
each workload exists and which layer metric should move which end-to-end
metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tracing import SPAN_NAMES, Tracer, aggregate, span_dicts

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
MIB = 2**20  # a MiB is 2^20 source symbols; on files, one byte is one symbol
SETUP_REPEATS = 5
DEADLINE_S = 170  # children still running then are killed; a run must end by 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
NPROC = len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    name: str
    k: int
    delta: int
    n: int
    file_bytes: int  # CLI pipeline input size before the seeded trim
    cpu_probe: str  # the CPU_PROBES entry that scales this workload's CLI ops
    drill_stripes: int = 0  # > 0 also runs the in-process Cluster drill
    verifies: int = 1  # verify --manifest runs per cycle


WORKLOADS = {
    w.name: w
    for w in (
        Workload("bulk-327", 3, 2, 7, 32 * MIB, "integers"),
        # verify takes a tenth of the cycle on 1 MiB, so it runs several times
        Workload("wide-3520", 3, 5, 20, MIB, "elements", verifies=4),
        Workload("drill-4313", 4, 3, 13, MIB, "elements", drill_stripes=400, verifies=4),
    )
}

# End-to-end throughput metric -> op on a CLI workload, op on the drill.
# The drill has no files, so its verify comes from its CLI pass.
THROUGHPUT = {
    "encode_MiBps": ("encode", "store"),
    "verify_MiBps": ("verify", "verify"),
    "reconstruct_MiBps": ("reconstruct", "read_all"),
    "repair_dmin_MiBps": ("repair_dmin", "run_repair_dmin"),
    "repair_dmax_MiBps": ("repair_dmax", "run_repair_dmax"),
}
# Peak-RSS metric -> CLI ops whose per-cycle maximum it reports.
PEAK_RSS = {
    "encode_peak_rss_MiB": ("encode",),
    "verify_peak_rss_MiB": ("verify",),
    "reconstruct_peak_rss_MiB": ("reconstruct",),
    "repair_peak_rss_MiB": ("repair_dmin", "repair_dmax"),
}
DRILL_STORES, DRILL_READS = 5, 2  # per drill cycle
# Host-speed probe for in-process ops: a fixed mix of interpreter and numpy
# integer work, the two kinds pmba does. PROBE_REF_S is its time on an
# unloaded reference host (x86_64, Python 3.11); scaled op times read as
# wall times on such a host.
PROBE_ROUNDS = 150_000
PROBE_A, PROBE_B = (np.random.default_rng(0).integers(0, 257, shape) for shape in ((2048, 64), (64, 64)))
PROBE_REF_S = 0.025
# Host-speed probes for CLI ops, run on the CPU the child runs on every
# CPU_SAMPLE_S while it runs (see Run.child and CPU_PROBES).
CPU_SAMPLE_S = 0.02


def probe() -> float:
    """Seconds this host takes now for the fixed probe work."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_ROUNDS):
        acc = (acc * 31 + i) % 257
    for _ in range(2):
        (PROBE_A @ PROBE_B) % 257
    return time.perf_counter() - t0


class _Elem:
    """The probe's unit of work: an element of F_257 as a small object."""

    __slots__ = ("v",)

    def __init__(self, v: int):
        self.v = v % 257

    def __add__(self, other):
        return _Elem(self.v + other.v)

    def __mul__(self, other):
        return _Elem(self.v * other.v)


PROBE_ELEMS = [_Elem(v) for v in range(1, 200)]


def element_burst() -> None:
    acc = _Elem(1)
    for e in PROBE_ELEMS:
        acc = acc * e + e


def integer_burst() -> None:
    acc = 0
    for i in range(2000):
        acc = (acc * 31 + i) % 257


# name -> (burst, its CPU time on the reference host). Each workload uses
# the burst whose time moves with its ops' time: element arithmetic for
# seconds of interpreter work on small objects, plain integer arithmetic
# for bulk numpy and file work. NOTES.md has the measurements.
CPU_PROBES = {
    "elements": (element_burst, 100e-6),
    "integers": (integer_burst, 95e-6),
}


def cpu_probe(name: str) -> float:
    """This CPU's current slowdown against the reference host for one probe.

    The burst runs twice and only the second, cache-warm pass is timed, in
    thread CPU time, to keep the child's cache use and time spent waiting
    for the CPU out of the reading."""
    burst, ref_s = CPU_PROBES[name]
    for _ in range(2):
        t0 = time.thread_time()
        burst()
    return (time.thread_time() - t0) / ref_s


def child_env() -> dict:
    """Environment for pmba children: sources from src/, and one thread,
    because each child runs pinned to one CPU (see Run.child)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def host_info(env: dict) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": NPROC,
        "machine": platform.machine(),
        **{var: env[var] for var in THREAD_VARS},
    }


def files_equal(path: Path, data: bytes) -> bool:
    return path.is_file() and path.read_bytes() == data


def node_stripes(cluster, node: int) -> list:
    """Every stripe's symbol values held by one alive Cluster node."""
    return [cluster.node_shard(node, s).symbol_values() for s in range(cluster.stripes)]


class Run:
    """One benchmark run: seeded inputs, op samples, failures and spans."""

    def __init__(self, workload: Workload, seed: int, trace: bool, say=print):
        from pmba.params import derive_params

        self.w = workload
        self.trace = trace
        self.say = say
        self.params = derive_params(workload.k, workload.delta, workload.n)
        self.input_seq, choice_seq = np.random.SeedSequence(seed % 2**64).spawn(2)
        self.choices = np.random.default_rng(choice_seq)
        self.dir = WORK / f"{workload.name}-{seed}-{os.getpid()}"
        self.env = child_env()
        self.started = time.perf_counter()
        self.attempted = 0
        self.failures = []
        self.samples = {}  # op -> [(cycle, MiB/s, peak RSS MiB or None)], untraced cycles
        self.cycle_walls = []  # (traced, summed op wall time) per cycle
        self.layer_cycles = []  # per traced cycle: per-layer metric -> value
        self.stored_ratio = []
        self.moved = {}  # d -> symbols moved per stripe, from every LedgerEntry
        self.crosscheck_failures = 0
        self.startup = []
        self.spans = []
        self.tracer = None
        self.op_id = 0

    # -- set-up -------------------------------------------------------------

    def setup(self) -> float:
        """Make the seeded inputs and warm the interpreter; median of repeats.

        Each repeat is scaled by the slowdown sampled during its
        interpreter start, like a CLI op.
        """
        from pmba.cluster import Cluster

        times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            shutil.rmtree(self.dir, ignore_errors=True)
            self.dir.mkdir(parents=True)
            rng = np.random.default_rng(self.input_seq)  # same inputs every repeat
            trim = int(rng.integers(0, min(4096, self.w.file_bytes // 2)))
            self.data = rng.integers(0, 256, self.w.file_bytes - trim, dtype=np.uint8).tobytes()
            self.input = self.dir / "input.bin"
            self.input.write_bytes(self.data)
            if self.w.drill_stripes:
                p = self.params
                self.source = rng.integers(0, p.q, self.w.drill_stripes * p.file_symbols)
                self.expected = [int(v) for v in self.source]
                self.cluster = Cluster(p)
            wall, rc, _, err, slowdown = self.child([sys.executable, "-c", "import pmba.cli"], self.env)
            if rc:
                raise RuntimeError(f"cannot import pmba.cli: {err.strip()}")
            self.startup.append(wall / slowdown)
            times.append((time.perf_counter() - t0) / slowdown)
        return statistics.median(times)

    # -- measurement --------------------------------------------------------

    def measure(self, seconds: float) -> None:
        """Repeat cycles while another one is expected to fit in `seconds`.

        A traced run alternates untraced and traced cycles, so that tracing
        overhead is measured against the same run.
        """
        start = time.perf_counter()
        min_cycles = 2 if self.trace else 1
        self.cycles = 0
        while True:
            self.cycle(self.cycles, traced=self.trace and self.cycles % 2 == 1)
            self.cycles += 1
            self.elapsed = time.perf_counter() - start
            if self.cycles >= min_cycles and self.elapsed * (self.cycles + 1) / self.cycles > seconds:
                break

    def cycle(self, i: int, traced: bool) -> None:
        self.cycle_wall = 0.0
        self.counts = {"shardio.bytes_read": 0, "shardio.bytes_written": 0}
        self.child_spans = []
        undo = None
        if traced:
            self.tracer = Tracer(prefix=f"c{i}.")
            undo = self.tracer.install()
        try:
            if self.w.drill_stripes:
                self.drill_cycle(i)
            self.cli_cycle(i)
        finally:
            if undo is not None:
                Tracer.uninstall(undo)
        self.cycle_walls.append((traced, self.cycle_wall))
        if traced:
            spans = span_dicts(self.tracer.spans) + self.child_spans
            self.tracer = None
            self.spans.extend(spans)
            layer = {}
            for name, (total, own, calls) in aggregate(spans).items():
                layer[f"{name}.s"], layer[f"{name}.self_s"], layer[f"{name}.calls"] = total, own, calls
            for name in SPAN_NAMES:  # a function never called took no time
                for suffix in ("s", "self_s", "calls"):
                    layer.setdefault(f"{name}.{suffix}", 0)
            layer.update(self.counts)
            self.layer_cycles.append(layer)

    def fail(self, i: int, op: str, reason: str) -> None:
        self.failures.append(f"cycle {i} {op}: {reason}")
        self.say(f"FAIL cycle {i} {op}: {reason}")

    def record(self, i: int, op: str, wall: float, mib: float, rss) -> None:
        self.cycle_wall += wall
        if self.tracer is None:
            self.samples.setdefault(op, []).append((i, mib / wall, rss))

    @contextmanager
    def op_span(self, op: str):
        self.op_id += 1
        if self.tracer is None:
            yield None
            return
        self.tracer.op = self.op_id
        with self.tracer.span(f"op.{op}") as sid:
            yield sid

    def child(self, argv, env):
        """Run one child to completion.

        Returns (wall s, exit code, peak RSS MiB, stderr, slowdown). This
        process and the child are pinned to one CPU, and while the child
        runs this process wakes every CPU_SAMPLE_S to run the workload's
        cpu_probe() there; slowdown is the mean reading. The shared host
        slows each CPU by up to 2x for seconds at a time, and this tracks it
        on the child's own CPU.
        """
        timeout = max(1.0, DEADLINE_S - (time.perf_counter() - self.started))
        log = self.dir / "child.err"
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})  # the child inherits it
        readings = []
        try:
            with open(log, "wb") as err:
                t0 = time.perf_counter()
                proc = subprocess.Popen(
                    argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err
                )
                killer = threading.Timer(timeout, proc.kill)
                killer.start()
                try:
                    with open(os.pidfd_open(proc.pid), "rb", buffering=0) as exited:
                        while not select.select([exited], [], [], CPU_SAMPLE_S)[0]:
                            readings.append(cpu_probe(self.w.cpu_probe))
                    _, status, usage = os.wait4(proc.pid, 0)
                except BaseException:
                    proc.kill()
                    proc.wait()
                    raise
                finally:
                    killer.cancel()
                    killer.join()
                wall = time.perf_counter() - t0
        finally:
            os.sched_setaffinity(0, cpus)
        proc.returncode = os.waitstatus_to_exitcode(status)
        slowdown = statistics.fmean(readings or [cpu_probe(self.w.cpu_probe)])
        return wall, proc.returncode, usage.ru_maxrss / 1024, log.read_text(errors="replace"), slowdown

    def cli_op(self, i, op, args, mib, reads, writes=(), check=None) -> bool:
        """One `pmba` subprocess; outputs are checked before the op counts."""
        self.attempted += 1
        args = [str(a) for a in args]
        spans_path = self.dir / "child-spans.json"
        with self.op_span(op) as sid:
            if sid is None:
                wall, rc, rss, err, slowdown = self.child([sys.executable, "-m", "pmba.cli", *args], self.env)
            else:
                env = {
                    **self.env,
                    "PERFBENCH_SPANS": str(spans_path),
                    "PERFBENCH_OP": str(self.op_id),
                    "PERFBENCH_PARENT": sid,
                }
                argv = [sys.executable, str(HERE / "tracing.py"), *args]
                wall, rc, rss, err, slowdown = self.child(argv, env)
        if sid is not None and spans_path.is_file():
            self.child_spans.extend(json.loads(spans_path.read_text()))
            spans_path.unlink()
        self.counts["shardio.bytes_read"] += sum(Path(p).stat().st_size for p in reads)
        self.crosscheck_failures += err.count("disagree on stripe 0")
        if rc != 0:
            lines = err.strip().splitlines()
            self.fail(i, op, f"exit code {rc}: {lines[-1] if lines else 'no message'}")
            return False
        problem = check() if check else None
        if problem:
            self.fail(i, op, problem)
            return False
        self.counts["shardio.bytes_written"] += sum(Path(p).stat().st_size for p in writes)
        self.record(i, op, wall / slowdown, mib, rss)
        return True

    def lib_op(self, i, op, mib, call, check) -> bool:
        """One library call in this process; its result must pass `check`.

        The shared host's speed swings by up to 2x within seconds, so the
        call's wall time is scaled to the reference speed by probes run
        just before and just after it. CLI ops last seconds, longer than
        the swings, and adjacent probes do not track them; they are
        sampled while they run instead (see child()).
        """
        self.attempted += 1
        before = probe()
        with self.op_span(op):
            t0 = time.perf_counter()
            try:
                out = call()
            except Exception as exc:  # a failing op is named and counted; the run goes on
                self.fail(i, op, f"{type(exc).__name__}: {exc}")
                return False
            wall = time.perf_counter() - t0
        slowdown = (before + probe()) / (2 * PROBE_REF_S)
        problem = check(out)
        if problem:
            self.fail(i, op, problem)
            return False
        self.record(i, op, wall / slowdown, mib, None)
        return True

    def cli_cycle(self, i: int) -> None:
        """encode, verify --manifest, reconstruct from k, repair at d_min and d_max."""
        w, p = self.w, self.params
        mib = len(self.data) / MIB
        shards = self.dir / "shards"
        shutil.rmtree(shards, ignore_errors=True)
        files = {j: shards / f"input.bin.shard{j:02d}" for j in range(1, p.n + 1)}
        manifest = shards / "input.bin.manifest"
        outputs = [*files.values(), manifest]
        code = ["--k", w.k, "--delta", w.delta, "--n", w.n]
        if not self.cli_op(
            i, "encode", ["encode", self.input, "--out-dir", shards, *code], mib,
            reads=[self.input], writes=outputs,
            check=lambda: None if all(f.is_file() for f in outputs) else "shard or manifest file missing",
        ):
            return  # nothing to verify, reconstruct or repair
        self.stored_ratio.append(sum(f.stat().st_size for f in outputs) / len(self.data))

        for _ in range(w.verifies):
            self.cli_op(
                i, "verify", ["verify", *files.values(), "--manifest", manifest], mib, reads=outputs
            )

        nodes = sorted(int(j) for j in self.choices.choice(np.arange(1, p.n + 1), p.k, replace=False))
        restored = self.dir / "restored.bin"
        self.cli_op(
            i, "reconstruct", ["reconstruct", *(files[j] for j in nodes), "--out", restored], mib,
            reads=[files[j] for j in nodes], writes=[restored],
            check=lambda: None if files_equal(restored, self.data) else f"file restored from nodes {nodes} differs from the input",
        )
        restored.unlink(missing_ok=True)

        f = int(self.choices.integers(1, p.n + 1))
        lost = self.dir / "lost.shard"
        files[f].replace(lost)
        others = [j for j in files if j != f]
        rebuilt = self.dir / "rebuilt.shard"
        for op, d in (("repair_dmin", p.helper_counts[0]), ("repair_dmax", p.helper_counts[-1])):
            helpers = sorted(int(h) for h in self.choices.choice(others, d, replace=False))
            self.cli_op(
                i, op, ["repair", *(files[h] for h in helpers), "--failed", f, "--out", rebuilt], mib,
                reads=[files[h] for h in helpers], writes=[rebuilt],
                check=lambda: None if files_equal(rebuilt, lost.read_bytes()) else f"shard {f} rebuilt from {helpers} differs from the original",
            )
            rebuilt.unlink(missing_ok=True)

    def drill_cycle(self, i: int) -> None:
        """store, fail/run_repair alternating min-d and max-d twice, read_all.

        store and read_all are short, so they run several times per cycle to
        get about as much measured time per run as the repairs.
        """
        from pmba.cluster import Cluster, HelperPolicy

        p, c = self.params, self.cluster
        mib = len(self.expected) / MIB
        for _ in range(DRILL_STORES):
            if not self.lib_op(i, "store", mib, lambda: c.store(self.source), lambda _: None):
                self.cluster = Cluster(p)
                return
        for policy, op, want_d in [
            ("min-d", "run_repair_dmin", p.helper_counts[0]),
            ("max-d", "run_repair_dmax", p.helper_counts[-1]),
        ] * 2:
            f = int(self.choices.choice(c.alive_nodes()))
            lost = node_stripes(c, f)
            c.fail_node(f)
            seed = int(self.choices.integers(2**32))

            def check(entry):
                self.moved.setdefault(entry.d, []).append(entry.symbols_moved)
                if entry.d != want_d:
                    return f"policy {policy} chose d={entry.d}, expected {want_d}"
                gamma = p.total_bandwidth[entry.d]
                if entry.symbols_moved != gamma:
                    return f"moved {entry.symbols_moved} symbols per stripe at d={entry.d}, gamma(d)={gamma}"
                if node_stripes(c, f) != lost:
                    return f"node {f} rebuilt from {list(entry.helpers)} differs from what it stored"
                return None

            if not self.lib_op(i, op, mib, lambda: c.run_repair(f, HelperPolicy.parse(policy), seed), check):
                self.cluster = Cluster(p)  # state unknown; start the next cycle afresh
                return
        for _ in range(DRILL_READS):
            self.lib_op(
                i, "read_all", mib, c.read_all,
                lambda out: None if out == self.expected else "read_all differs from the stored source mod q",
            )

    # -- results ------------------------------------------------------------

    def end_to_end(self, setup_s: float) -> dict:
        def median(values):
            return statistics.median(values) if values else 0.0

        drill = 1 if self.w.drill_stripes else 0
        values = {"setup_s": setup_s}
        for metric, ops in THROUGHPUT.items():
            values[metric] = median([s[1] for s in self.samples.get(ops[drill], [])])
        for metric, ops in PEAK_RSS.items():
            per_cycle = {}
            for op in ops:
                for cycle, _, rss in self.samples.get(op, []):
                    per_cycle[cycle] = max(per_cycle.get(cycle, 0.0), rss)
            values[metric] = median(list(per_cycle.values()))
        values["stored_bytes_per_source_byte"] = median(self.stored_ratio)
        values["success_rate"] = 1 - len(self.failures) / self.attempted
        return values

    def per_layer(self) -> dict:
        values = {
            key: statistics.median(c[key] for c in self.layer_cycles) for key in self.layer_cycles[0]
        }
        values["cli.startup_s"] = statistics.median(self.startup)
        for d, moved in self.moved.items():
            values[f"cluster.symbols_moved_per_stripe.d{d}"] = statistics.median(moved)
        values["striping.crosscheck_failures"] = self.crosscheck_failures
        walls = {t: statistics.median(w for traced, w in self.cycle_walls if traced == t) for t in (False, True)}
        values["trace.overhead_ratio"] = walls[True] / walls[False] - 1
        return values


def run(workload: Workload, seed: int, seconds: float, trace: bool, say=print) -> dict:
    """One run; returns the result object printed as the last output line."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    r = Run(workload, seed, trace, say)
    try:
        setup_s = r.setup()
        r.measure(seconds)
    finally:
        shutil.rmtree(r.dir, ignore_errors=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if trace:
        values = r.per_layer()
        entries = spec["per_layer"]
        (WORK / f"spans-{workload.name}.json").write_text(json.dumps(r.spans))
    else:
        values = r.end_to_end(setup_s)
        entries = spec["end_to_end"]
    metrics = {}
    for m in entries:
        name = m["name"]
        if name not in values and name.startswith("cluster."):
            values[name] = 0  # no Cluster repair at this d ran, as on the CLI workloads
        metrics[name] = {"value": values[name], "unit": m["unit"]}

    say(
        f"{workload.name} seed={seed} trace={int(trace)}: {r.cycles} cycles in {r.elapsed:.1f} s, "
        f"setup {setup_s:.3f} s; host {json.dumps(host_info(r.env))}"
    )
    for name, m in metrics.items():
        say(f"  {name} = {m['value']:.6g} {m['unit']}")
    say(f"  error_rate = {len(r.failures) / r.attempted:.6g} ({len(r.failures)} failed of {r.attempted} ops)")
    return {
        "correct": not r.failures,
        "attempted": r.attempted,
        "failed": len(r.failures),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measurement time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pmba" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} is not a pmba checkout (src/pmba or BENCHMARK.json missing)", file=sys.stderr)
        return 2
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
