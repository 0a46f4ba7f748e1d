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


WIDE_Q = derive_params(3, 2, 7, q=65521)


def store_inputs(params, stripes):
    q, count = params.q, stripes * params.file_symbols
    rng = np.random.default_rng(97)
    yield "uint8", rng.integers(0, 256, count).astype(np.uint8)
    yield "int16", rng.integers(-(2**15), 2**15, count).astype(np.int16)
    yield "int64", rng.integers(-(2**63), 2**63 - 1, count, dtype=np.int64, endpoint=True)
    yield "uint64", rng.integers(0, 2**64 - 1, count, dtype=np.uint64, endpoint=True)
    big = rng.integers(0, q, count).tolist()
    big[:2] = [2**64 + 3, -(2**70)]
    yield "list beyond int64", big
    yield "list of floats", (rng.random(count) * 4 * q - 2 * q).tolist()
    yield "list of bools", [bool(v) for v in rng.integers(0, 2, count)]
    yield "list of FieldElements", list(params.field.elements(rng.integers(0, q, count)))


@pytest.mark.parametrize("params", [WORKED, WIDE_Q], ids=["q11", "q65521"])
def test_store_keeps_int_s_mod_q_whatever_the_input_type(params):
    stripes = 3
    for name, source in store_inputs(params, stripes):
        want = [int(s) % params.q for s in source]
        reference = Cluster(params)
        reference.store(np.array(want, dtype=np.int64))
        c = Cluster(params)
        c.store(source)
        assert c.stripes == stripes, name
        assert c.read_all() == want, name
        for j in range(1, params.n + 1):
            for s in range(stripes):
                got = c.node_shard(j, s).symbol_values()
                assert got == reference.node_shard(j, s).symbol_values(), (name, j, s)
        with pytest.raises(ValueError, match=f"source length {len(want) - 1} is not a multiple of F"):
            Cluster(params).store(source[1:])


def test_store_refuses_what_int_refuses():
    c = Cluster(WORKED)
    with pytest.raises(TypeError):
        c.store([[1, 2], [3]])  # ragged: numpy cannot read it as an array either
    with pytest.raises(TypeError):
        c.store(np.zeros((2, WORKED.file_symbols), dtype=np.int64))  # rows are not symbols
    with pytest.raises(ValueError):
        c.store(["1", "x"] * 6)
    assert c.stripes == 0
