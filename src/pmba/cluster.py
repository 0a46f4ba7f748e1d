"""Deterministic in-memory storage cluster simulation.

Nodes are either alive, each with one (stripes, alpha) `<u2` payload as a
shard file holds, or failed. `store` reduces an integer array source mod q
in one array operation and encodes it whole with the batch encoder the
cluster builds once. `run_repair` builds one batch bundler per repair and
bundles every helper's every stripe in one call of it, after checking
that the helpers send gamma(d) symbols per stripe. `read_all` and the
combining half of `run_repair` turn the node payloads or the bundle array
they read into tuples of canonical field elements, one per array, then
run the stepwise `reconstruct` or `repair` one stripe at a time on slices
of them, the calls `perfbench/test_smoke.py` pins. Repairs pick the helper
count through a policy and the helpers uniformly from a seeded generator,
and append one traffic record per repair, so identical seeds replay
identical histories.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import NodeShard
from .field import residues
from .params import CodeParams
from .reconstructor import reconstruct
from .repairer import RepairBundle, check_helper_count, repair
from .striping import stripe_bundler, stripe_encoder


@dataclass(frozen=True)
class HelperPolicy:
    """How run_repair picks d; helpers themselves are always seeded-uniform."""

    strategy: str  # "max-d", "min-d" or "fixed"
    fixed_d: int | None = None

    def __post_init__(self):
        text = self.strategy if self.fixed_d is None else f"{self.strategy}:{self.fixed_d}"
        if self.strategy == "fixed":
            if not isinstance(self.fixed_d, int):
                raise ValueError(f"bad fixed helper count in policy {text!r}")
        elif self.strategy not in ("max-d", "min-d") or self.fixed_d is not None:
            raise ValueError(f"unknown policy {text!r}; use max-d, min-d or fixed:<d>")

    @classmethod
    def parse(cls, text: str) -> "HelperPolicy":
        if text.startswith("fixed:"):
            try:
                fixed_d = int(text.split(":", 1)[1])
            except ValueError:
                raise ValueError(f"bad fixed helper count in policy {text!r}") from None
            return cls("fixed", fixed_d)
        return cls(text)

    def choose_d(self, helper_counts, alive_count: int) -> int:
        if self.strategy == "fixed":
            check_helper_count(helper_counts, self.fixed_d)
            if self.fixed_d > alive_count:
                raise ValueError(
                    f"policy wants d = {self.fixed_d} helpers but only "
                    f"{alive_count} nodes are alive"
                )
            return self.fixed_d
        feasible = [d for d in helper_counts if d <= alive_count]
        if not feasible:
            valid = "{" + ", ".join(map(str, helper_counts)) + "}"
            raise ValueError(
                f"no supported helper count fits {alive_count} alive nodes; "
                f"valid D = {valid}"
            )
        return max(feasible) if self.strategy == "max-d" else min(feasible)


@dataclass(frozen=True)
class LedgerEntry:
    stripe_count: int
    failed: int
    d: int
    helpers: tuple
    symbols_moved: int  # per stripe; checked to equal gamma(d) = d * beta(d)


CSV_HEADER = "stripe_count,f,d,helpers,symbols_moved"


class Cluster:
    """n virtual nodes holding striped shards, with failure and repair."""

    def __init__(self, params: CodeParams):
        self.params = params
        self.stripes = 0
        self.traffic_ledger: list[LedgerEntry] = []
        self._encode = stripe_encoder(params)
        # node index -> (stripes, alpha) `<u2` payload, or None when failed
        empty = np.empty((0, params.alpha), dtype="<u2")
        self._stored: dict[int, np.ndarray | None] = {j: empty for j in range(1, params.n + 1)}

    # state inspection ------------------------------------------------------

    def alive_nodes(self) -> tuple:
        return tuple(j for j in sorted(self._stored) if self._stored[j] is not None)

    def failed_nodes(self) -> tuple:
        return tuple(j for j in sorted(self._stored) if self._stored[j] is None)

    def node_shard(self, node_index: int, stripe: int) -> NodeShard:
        self.params.check_nodes([node_index])
        if not 0 <= stripe < self.stripes:
            raise ValueError(f"stripe {stripe} outside 0..{self.stripes - 1}")
        stored = self._stored[node_index]
        if stored is None:
            raise ValueError(f"node {node_index} is failed")
        symbols = self.params.field.elements(stored[stripe])
        return NodeShard(node_index, self.params.eval_point(node_index), symbols)

    # operations ------------------------------------------------------------

    def store(self, source_symbols) -> None:
        vals = residues(source_symbols, self.params.q)
        f_sym = self.params.file_symbols
        if len(vals) % f_sym != 0:
            raise ValueError(
                f"source length {len(vals)} is not a multiple of F = {f_sym}"
            )
        if self.failed_nodes():
            raise ValueError("cannot store while nodes are failed")
        payloads = self._encode(vals.reshape(-1, f_sym))
        self.stripes = payloads.shape[1]
        for j in self._stored:
            self._stored[j] = payloads[j - 1]

    def fail_node(self, f: int) -> None:
        self.params.check_nodes([f])
        if self._stored[f] is None:
            raise ValueError(f"node {f} is already failed")
        self._stored[f] = None

    def read_all(self) -> list:
        alive = self.alive_nodes()
        k = self.params.k
        if len(alive) < k:
            raise ValueError(
                f"read refused: only {len(alive)} alive nodes, need k = {k}"
            )
        alpha, field = self.params.alpha, self.params.field
        # one `elements` call per node's whole payload, sliced per stripe
        readers = [
            (j, self.params.eval_point(j), field.elements(self._stored[j].reshape(-1)))
            for j in alive[:k]
        ]
        out = []
        for s in range(self.stripes):
            lo, hi = s * alpha, (s + 1) * alpha
            shards = [NodeShard(j, point, symbols[lo:hi]) for j, point, symbols in readers]
            out.extend(sym.value for sym in reconstruct(shards, self.params))
        return out

    def run_repair(self, f: int, policy: HelperPolicy, rng_seed: int) -> LedgerEntry:
        self.params.check_nodes([f])
        if self._stored[f] is not None:
            raise ValueError(f"node {f} is alive; nothing to repair")
        alive = self.alive_nodes()
        d = policy.choose_d(self.params.helper_counts, len(alive))
        rng = np.random.default_rng(rng_seed)
        helpers = tuple(sorted(int(h) for h in rng.choice(alive, size=d, replace=False)))

        gamma, beta = self.params.total_bandwidth[d], self.params.per_node_bandwidth[d]
        sent = stripe_bundler(self.params, f, d)({h: self._stored[h] for h in helpers})
        # a bundle array of another shape would misalign every stripe sliced from it
        if sent.shape != (self.stripes, gamma):
            raise AssertionError(f"stripe 0: helpers sent {sent.shape[1]} symbols, gamma({d}) = {gamma}")
        symbols = self.params.field.elements(sent.reshape(-1))
        rebuilt = np.empty((self.stripes, self.params.alpha), dtype="<u2")
        for s in range(self.stripes):
            lo = s * gamma  # a stripe's bundles, grouped by helper in ascending order
            bundles = [
                RepairBundle(h, f, d, symbols[lo + i * beta : lo + (i + 1) * beta])
                for i, h in enumerate(helpers)
            ]
            rebuilt[s] = repair(f, bundles, self.params).symbol_values()

        self._stored[f] = rebuilt
        entry = LedgerEntry(
            stripe_count=self.stripes,
            failed=f,
            d=d,
            helpers=helpers,
            symbols_moved=gamma,
        )
        self.traffic_ledger.append(entry)
        return entry

    def ledger_csv(self) -> str:
        lines = [CSV_HEADER]
        for e in self.traffic_ledger:
            helpers = ";".join(map(str, e.helpers))
            lines.append(
                f"{e.stripe_count},{e.failed},{e.d},{helpers},{e.symbols_moved}"
            )
        return "\n".join(lines) + "\n"
