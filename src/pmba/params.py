"""Derive every code parameter from the two design inputs k and delta.

The code stores alpha = (k-1) * lcm(1..delta) symbols per node so that a
failed node can be rebuilt from any d in D = {2(k-1), ..., (delta+1)(k-1)}
helpers with each helper sending exactly alpha / (d-k+1) symbols. All other
quantities follow from those two choices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .field import MAX_MODULUS, PrimeField, smallest_prime_geq

BYTE_SAFE_MIN_Q = 257  # one byte per symbol stays injective from here up


def lcm_upto(delta: int) -> int:
    """lcm(1, 2, ..., delta)."""
    if delta < 1:
        raise ValueError(f"delta must satisfy delta >= 1, got {delta}")
    return math.lcm(*range(1, delta + 1))


def comparison_subpacketization(n: int, delta: int) -> int:
    """Per-node symbol count a flat construction needs for the same flexibility.

    Parity-check based designs that support several helper counts at once
    pay lcm(1..delta) ** n symbols per node, exponential in the cluster
    size, versus (k-1) * lcm(1..delta) here. Used for reporting only.
    """
    if n < 1:
        raise ValueError(f"n must satisfy n >= 1, got {n}")
    return lcm_upto(delta) ** n


def _points_collide(k: int, n: int, q: int) -> bool:
    """Whether points 1..n share a (k-1)-th power mod q; with fewer than n
    power classes they must, and no power is computed."""
    classes = (q - 1) // math.gcd(k - 1, q - 1)
    return classes < n or len({pow(x, k - 1, q) for x in range(1, n + 1)}) < n


def set_text(values) -> str:
    """A set of numbers as text: {4, 6}."""
    return "{" + ", ".join(map(str, values)) + "}"


def _groups(groups) -> str:
    """Node groups as text: {4,7}, {5,6}."""
    return ", ".join("{" + ",".join(map(str, g)) + "}" for g in groups)


@dataclass(frozen=True)
class CodeParams:
    """The five inputs of a code; every other quantity is derived and cached."""

    n: int
    k: int
    delta: int
    q: int
    eval_points: tuple

    @cached_property
    def field(self) -> PrimeField:
        return PrimeField(self.q)

    @cached_property
    def z_delta(self) -> int:
        return lcm_upto(self.delta)

    @cached_property
    def alpha(self) -> int:
        return (self.k - 1) * self.z_delta

    @cached_property
    def file_symbols(self) -> int:
        return self.k * self.alpha

    @cached_property
    def helper_counts(self) -> tuple:
        return tuple((i + 1) * (self.k - 1) for i in range(1, self.delta + 1))

    @cached_property
    def per_node_bandwidth(self) -> dict:
        # d-k+1 = i(k-1) with 1 <= i <= delta, so beta = lcm(1..delta)/i is whole
        return {d: self.alpha // (d - self.k + 1) for d in self.helper_counts}

    @cached_property
    def total_bandwidth(self) -> dict:
        return {d: d * b for d, b in self.per_node_bandwidth.items()}

    def file_stripes(self, length: int) -> int:
        """Stripes a v1 shard set holds for a file of `length` bytes: ceil(length / F)."""
        return -(-length // self.file_symbols)

    def check_nodes(self, nodes) -> None:
        """Refuse a list of 1-based node indices that repeats one or leaves 1..n."""
        if len(set(nodes)) != len(nodes):
            raise ValueError(f"node indices must be distinct, got {nodes}")
        for j in nodes:
            if not 1 <= j <= self.n:
                raise ValueError(f"node index {j} outside 1..{self.n}")

    def eval_point(self, node_index: int):
        """Evaluation point of 1-based node node_index, as a FieldElement."""
        self.check_nodes([node_index])
        return self.field.element(self.eval_points[node_index - 1])

    def power_collisions(self, nodes=None) -> list:
        """Groups of `nodes` (default: all n) whose evaluation points share
        a (k-1)-th power.

        No k nodes holding two of a group can reconstruct, so a code with
        any collision is not MDS.
        """
        by_power = {}
        for j in range(1, self.n + 1) if nodes is None else sorted(nodes):
            by_power.setdefault(pow(self.eval_points[j - 1], self.k - 1, self.q), []).append(j)
        return [tuple(group) for group in by_power.values() if len(group) > 1]

    def check_decodable(self, nodes=None) -> None:
        """The one judge of a read. Given `nodes`, refuse a count other than k
        and a list `check_nodes` refuses; then refuse `nodes` (default: all
        n) if two of them share a (k-1)-th power, naming each such group."""
        if nodes is not None:
            if len(nodes) != self.k:
                raise ValueError(f"need exactly k = {self.k} node payloads, got {len(nodes)}")
            self.check_nodes(nodes)
        groups = _groups(self.power_collisions(nodes))
        if groups:
            raise ValueError(
                f"q = {self.q} gives nodes {groups} the same (k-1)-th power, so k "
                f"nodes holding two of them cannot reconstruct"
            )

    def describe(self) -> str:
        """Aligned key/value text of every derived quantity."""
        beta = set_text(f"{d}->{b}" for d, b in sorted(self.per_node_bandwidth.items()))
        gamma = set_text(f"{d}->{g}" for d, g in sorted(self.total_bandwidth.items()))
        lines = [
            ("nodes (n)", self.n),
            ("reconstruction threshold (k)", self.k),
            ("flexibility degree (delta)", self.delta),
            ("field modulus (q)", self.q),
            ("lcm(1..delta) (z)", self.z_delta),
            ("symbols per node (alpha)", self.alpha),
            ("symbols per stripe (F)", self.file_symbols),
            ("helper counts (D)", set_text(self.helper_counts)),
            ("per-helper symbols (beta)", beta),
            ("repair traffic (gamma)", gamma),
            ("evaluation points", ", ".join(map(str, self.eval_points))),
            ("colliding nodes", _groups(self.power_collisions()) or "none"),
        ]
        width = max(len(name) for name, _ in lines)
        return "\n".join(f"{name:<{width}}  {value}" for name, value in lines)


def derive_params(
    k: int, delta: int, n: int, q: int | None = None, eval_points=None
) -> CodeParams:
    """Validate (k, delta, n, q) and derive the full parameter set.

    Every precondition failure names the violated inequality. When q is
    omitted it defaults to the smallest prime large enough for n distinct
    nonzero evaluation points and a one-byte-per-symbol payload mapping;
    when eval_points is omitted too, the smallest such prime at which the
    default points 1..n have distinct (k-1)-th powers, so the default code
    is MDS. If no prime up to MAX_MODULUS gives that, the default is refused.
    """
    if k < 2:
        raise ValueError(f"k must satisfy k >= 2, got {k}")
    if delta < 1:
        raise ValueError(f"delta must satisfy delta >= 1, got {delta}")
    d_max = (delta + 1) * (k - 1)
    if n < d_max + 1:
        raise ValueError(
            f"n must satisfy n >= (delta+1)(k-1)+1 = {d_max + 1}, got {n}; "
            f"the largest repair uses {d_max} helpers plus the failed node"
        )
    if q is None:
        q = smallest_prime_geq(max(n + 1, BYTE_SAFE_MIN_Q))
        while eval_points is None and q <= MAX_MODULUS and _points_collide(k, n, q):
            q = smallest_prime_geq(q + 1)
            if q > MAX_MODULUS:
                raise ValueError(
                    f"no prime q <= {MAX_MODULUS} gives the points 1..{n} distinct "
                    f"(k-1)-th powers for k = {k}; give q or evaluation points"
                )
    PrimeField(q)  # refuses a composite q and one wider than two bytes
    if q < n + 1:
        raise ValueError(
            f"q must satisfy q >= n+1 = {n + 1} for n distinct nonzero "
            f"evaluation points, got {q}"
        )

    if eval_points is None:
        points = tuple(range(1, n + 1))
    else:
        points = tuple(int(e) % q for e in eval_points)
        if len(points) != n:
            raise ValueError(f"need exactly n = {n} evaluation points, got {len(points)}")
        if any(e == 0 for e in points):
            raise ValueError("evaluation points must be nonzero")
        if len(set(points)) != n:
            raise ValueError("evaluation points must be pairwise distinct")

    return CodeParams(n=n, k=k, delta=delta, q=q, eval_points=points)
