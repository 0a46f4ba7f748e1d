# tests/test_cluster_store.py
#
# Cluster.store encodes through one batch encoder per cluster; every node's
# payload must equal what the stepwise encoder gives for each stripe.
import numpy as np
import pytest

import pmba.cluster
import pmba.striping
from pmba.cluster import Cluster
from pmba.encoder import build_message_matrix, encode_all
from pmba.params import derive_params

WORKED = derive_params(3, 2, 7, q=11)  # points 4, 7 and 5, 6 share a square: not MDS
MID = derive_params(4, 3, 13)


def source_as(kind, values, params):
    if kind == "list":
        return list(values)
    if kind == "array":
        return np.asarray(values, dtype=np.int64)
    return list(params.field.elements(values))


@pytest.mark.parametrize("kind", ["list", "array", "field elements"])
@pytest.mark.parametrize("params", [WORKED, MID], ids=["worked-q11", "4-3-13"])
def test_every_stored_payload_is_the_stepwise_encoding(params, kind):
    stripes, f_sym = 5, params.file_symbols
    values = np.random.default_rng(83).integers(0, params.q, stripes * f_sym).tolist()
    if kind != "field elements":  # store reduces each symbol with int(s) % q
        values[:3] = [values[0] - params.q, values[1] + 5 * params.q, values[2] + 2**40 * params.q]
    c = Cluster(params)
    c.store(source_as(kind, values, params))
    assert c.stripes == stripes
    for s in range(stripes):
        stripe = [v % params.q for v in values[s * f_sym : (s + 1) * f_sym]]
        want = encode_all(build_message_matrix(stripe, params), params)
        for j in range(1, params.n + 1):
            assert c.node_shard(j, s).symbol_values() == want[j - 1].symbol_values(), (s, j)
    assert c.read_all() == [v % params.q for v in values]


def test_a_cluster_builds_one_encoder_for_all_its_stores(monkeypatch):
    built = []
    real = pmba.striping.stripe_encoder

    def count(p):
        built.append(p)
        return real(p)

    monkeypatch.setattr(pmba.cluster, "stripe_encoder", count, raising=False)
    c = Cluster(MID)
    source = np.random.default_rng(89).integers(0, MID.q, 3 * MID.file_symbols)
    for stripes in (3, 1, 2):
        c.store(source[: stripes * MID.file_symbols])
        assert c.stripes == stripes
    assert built == [MID]
