"""Deterministic in-memory storage cluster simulation.

Nodes are either alive with their striped shards or failed. Repairs pick
the helper count through a policy, pick the helpers uniformly from a
seeded generator, and append one traffic record per repair, so identical
seeds replay identical histories.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import NodeShard, build_message_matrix, encode_all
from .params import CodeParams
from .reconstructor import reconstruct
from .repairer import check_helper_count, make_repair_bundle, repair


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
        # node index -> list of per-stripe symbol tuples, or None when failed
        self._stored: dict[int, list | None] = {j: [] for j in range(1, params.n + 1)}

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
        return NodeShard(
            node_index=node_index,
            eval_point=self.params.eval_point(node_index),
            symbols=symbols,
        )

    # operations ------------------------------------------------------------

    def store(self, source_symbols) -> None:
        vals = [int(s) % self.params.q for s in source_symbols]
        f_sym = self.params.file_symbols
        if len(vals) % f_sym != 0:
            raise ValueError(
                f"source length {len(vals)} is not a multiple of F = {f_sym}"
            )
        if self.failed_nodes():
            raise ValueError("cannot store while nodes are failed")
        self.stripes = len(vals) // f_sym
        for j in self._stored:
            self._stored[j] = []
        for s in range(self.stripes):
            stripe = vals[s * f_sym : (s + 1) * f_sym]
            m = build_message_matrix(stripe, self.params)
            for shard in encode_all(m, self.params):
                self._stored[shard.node_index].append(shard.symbol_values())

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
        readers = alive[:k]
        out = []
        for s in range(self.stripes):
            shards = [self.node_shard(j, s) for j in readers]
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

        gamma = self.params.total_bandwidth[d]
        rebuilt = []
        for s in range(self.stripes):
            bundles = [
                make_repair_bundle(self.node_shard(h, s), f, d, self.params)
                for h in helpers
            ]
            moved = sum(len(b.symbols) for b in bundles)
            if moved != gamma:
                raise AssertionError(
                    f"stripe {s}: helpers sent {moved} symbols, gamma({d}) = {gamma}"
                )
            rebuilt.append(repair(f, bundles, self.params).symbol_values())

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
