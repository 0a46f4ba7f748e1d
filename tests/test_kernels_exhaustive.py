"""Every read and every repair of two small codes, through the batch kernels.

At (2,3,6) and (3,3,9) at the default q, every k-subset of nodes must
decode a seeded batch and every failed node must be rebuilt from every
helper set of every supported size d. At k = 2 the block a repair step
carries over is a single column.
"""

from itertools import combinations

import numpy as np
import pytest

from pmba import striping
from pmba.params import derive_params

CODES = [derive_params(2, 3, 6), derive_params(3, 3, 9)]
IDS = ["2-3-6", "3-3-9"]


def coded_batch(params):
    """A seeded 5-stripe source and its payloads, indexed [node-1, stripe, symbol]."""
    rng = np.random.default_rng(params.n)
    source = rng.integers(0, params.q, (5, params.file_symbols))
    return source, striping.stripe_encoder(params)(source)


@pytest.mark.parametrize("params", CODES, ids=IDS)
def test_every_k_subset_decodes(params):
    source, coded = coded_batch(params)
    reads = list(combinations(range(1, params.n + 1), params.k))
    for nodes in reads:
        decode = striping.stripe_decoder(params, nodes)
        assert np.array_equal(decode({j: coded[j - 1] for j in nodes}), source), nodes
    assert len(reads) == {6: 15, 9: 84}[params.n]


@pytest.mark.parametrize("params", CODES, ids=IDS)
def test_every_helper_set_repairs_every_node(params):
    _, coded = coded_batch(params)
    repairs = 0
    for f in range(1, params.n + 1):
        others = [j for j in range(1, params.n + 1) if j != f]
        for d in params.helper_counts:
            for helpers in combinations(others, d):
                rebuild = striping.stripe_repairer(params, f, helpers)
                got = rebuild({h: coded[h - 1] for h in helpers})
                assert np.array_equal(got, coded[f - 1]), (f, helpers)
                repairs += 1
    assert repairs == {6: 150, 9: 891}[params.n]
