# tests/test_exactness.py
#
# The striping kernels run their modular products in float32 BLAS where
# every sum stays below 2**22, and in float64 BLAS where it stays below
# 2**51. These tests pin what keeps that exact: the mod-q reduction at and
# around every multiple of q up to the largest sum each dtype allows, the
# guard that picks the dtype or refuses, each kernel against an int64
# reference at the default and the largest modulus and at every edge of
# its stripe tiles, and the dtype and layout the kernels hand to the shard
# writer.
from functools import lru_cache

import numpy as np
import pytest

from pmba import shardio, striping
from pmba.params import derive_params
from pmba.shardio import ShardWriter, header_for

LARGEST = striping._EXACT_BELOW - 1  # the largest sum the guard lets a kernel reach
CODES = [(3, 2, 7), (4, 3, 13), (3, 5, 20)]
CODE_IDS = ["3-2-7", "4-3-13", "3-5-20"]


@pytest.mark.parametrize("q", [2, 3, 257, 263, 65519, 65521])
def test_the_reduction_is_exact_around_every_multiple_of_q(q):
    top = (LARGEST - 1) // q  # the largest m with m*q + 1 allowed
    m = np.unique(np.concatenate([
        np.arange(0, 1000),
        np.geomspace(1000, top, 2000).astype(np.int64),
        np.random.default_rng(q).integers(0, top, 2000),
        np.arange(top - 1000, top + 1),
    ]))
    x = (m[:, None] * q + np.array([-1, 0, 1])).reshape(-1)
    x = x[x >= 0]
    assert x.max() <= LARGEST and float(x.max()) == x.max()
    want = x % q
    got = striping._reduce(x.astype(np.float64), q)
    assert np.array_equal(got, want)
    into = np.empty(x.shape, dtype="<u2")
    striping._reduce(x.astype(np.float64), q, out=into)
    assert np.array_equal(into, want)
    top_x = np.array([float(LARGEST)])
    assert striping._reduce(top_x, q)[0] == LARGEST % q


@pytest.mark.parametrize("q", [2, 3, 257, 263, 65519, 65521])
def test_the_float32_reduction_is_exact_on_every_sum_below_2_22(q):
    x = np.arange(striping._SINGLE_BELOW)  # every multiple of q and both its neighbours
    want = x % q
    got = striping._reduce(x.astype(np.float32), q)
    assert got.dtype == np.float32 and np.array_equal(got, want)
    into = np.empty(x.shape, dtype="<u2")
    striping._reduce(x.astype(np.float32), q, out=into)
    assert np.array_equal(into, want)


@pytest.mark.parametrize("q", [2, 3, 257, 263])
def test_the_guard_picks_float32_below_2_22_and_float64_past_it(q):
    last = (striping._SINGLE_BELOW - 1) // (q - 1) ** 2  # the most terms float32 sums exactly
    assert striping._check_exact(q, last, "encoder") is np.float32
    assert striping._check_exact(q, last + 1, "encoder") is np.float64


@pytest.mark.parametrize("q", [257, 65521])
def test_the_guard_refuses_one_term_past_its_bound(q):
    bound = LARGEST // (q - 1) ** 2  # the most terms whose sum stays allowed
    striping._check_exact(q, bound, "encoder")
    with pytest.raises(ValueError, match=rf"encoder sums {bound + 1} products of residues mod q = {q}\b"):
        striping._check_exact(q, bound + 1, "encoder")


BUILDERS = {
    "encoder": lambda p: striping.stripe_encoder(p),
    "decoder": lambda p: striping.stripe_decoder(p, (1, 2, 3)),
    "repairer": lambda p: striping.stripe_repairer(p, 1, (2, 3, 4, 5)),
}


@pytest.mark.parametrize("kernel", sorted(BUILDERS))
def test_each_builder_refuses_past_the_bound_before_its_self_check(kernel, monkeypatch):
    params = derive_params(3, 2, 7, q=65521)
    monkeypatch.setattr(striping, "_EXACT_BELOW", (params.q - 1) ** 2)  # one term at most
    monkeypatch.setattr(striping, "_self_check_batch", lambda p: pytest.fail("self-check ran"))
    with pytest.raises(ValueError, match=f"the {kernel} sums .* mod q = 65521"):
        BUILDERS[kernel](params)


def reference_encode(source, params):
    """The int64 product the float encoder must match."""
    coded = source @ striping.encode_matrix(params).T % params.q  # exact: F (q-1)**2 < 2**63
    return coded.reshape(len(source), params.n, params.alpha).transpose(1, 0, 2)


def record_dtypes(monkeypatch):
    """Wrap `_check_exact`; returns the {kernel: set of dtypes} it picks."""
    picked = {}
    real = striping._check_exact

    def spy(q, terms, kernel):
        dtype = real(q, terms, kernel)
        picked.setdefault(kernel, set()).add(dtype)
        return dtype

    monkeypatch.setattr(striping, "_check_exact", spy)
    return picked


def check_every_kernel(params, seed):
    """Encode five stripes, the first all q-1, then decode them from a random
    k-subset and rebuild a random node from every helper count, each
    against the int64 reference."""
    q = params.q
    rng = np.random.default_rng(seed)
    source = rng.integers(0, q, (5, params.file_symbols))
    source[0] = q - 1  # every product and every sum as large as it gets
    coded = striping.stripe_encoder(params)(source)
    assert np.array_equal(coded, reference_encode(source, params))
    nodes = sorted(int(j) for j in rng.choice(params.n, params.k, replace=False) + 1)
    decoded = striping.stripe_decoder(params, nodes)({j: coded[j - 1] for j in nodes})
    assert np.array_equal(decoded, source)
    f = int(rng.integers(1, params.n + 1))
    others = [h for h in range(1, params.n + 1) if h != f]
    for d in params.helper_counts:
        helpers = sorted(int(h) for h in rng.choice(others, d, replace=False))
        rebuilt = striping.stripe_repairer(params, f, helpers)({h: coded[h - 1] for h in helpers})
        assert np.array_equal(rebuilt, coded[f - 1]), d


@pytest.mark.parametrize("code", CODES, ids=CODE_IDS)
def test_every_kernel_matches_an_int64_reference_at_the_largest_modulus(code, monkeypatch):
    picked = record_dtypes(monkeypatch)
    check_every_kernel(derive_params(*code, q=65521), sum(code))
    assert picked == {kernel: {np.float64} for kernel in ("encoder", "decoder", "repairer")}


# The dtype each kernel of the default grid runs at the default q = 257,
# where a product of two residues is at most 2**16, so float32 takes up to
# 63 terms: the (3,5,20) repairer sums d*beta = 144 (d = 12) to 240 (d = 4).
DEFAULT_Q_DTYPES = {
    (3, 2, 7): {"encoder": np.float32, "decoder": np.float32, "repairer": np.float32},
    (4, 3, 13): {"encoder": np.float32, "decoder": np.float32, "repairer": np.float32},
    (3, 5, 20): {"encoder": np.float32, "decoder": np.float32, "repairer": np.float64},
}


@pytest.mark.parametrize("code", CODES, ids=CODE_IDS)
def test_every_kernel_matches_an_int64_reference_at_the_default_modulus(code, monkeypatch):
    params = derive_params(*code)
    assert params.q == 257
    picked = record_dtypes(monkeypatch)
    check_every_kernel(params, sum(code))
    assert picked == {kernel: {dtype} for kernel, dtype in DEFAULT_Q_DTYPES[code].items()}


PERIOD = 101  # distinct stripes in a tile-edge batch, repeated; prime, so a
# kernel that drops, repeats or shifts stripes at a tile edge by fewer than
# 101 returns some stripe another one's symbols


@lru_cache(maxsize=None)
def periodic_stripes(code, q):
    """PERIOD random source stripes, the first all q-1, and their int64
    reference payloads."""
    params = derive_params(*code, q=q)
    source = np.random.default_rng(sum(code) + q).integers(0, q, (PERIOD, params.file_symbols))
    source[0] = q - 1
    return params, source, reference_encode(source, params)


def tile_edge_counts(monkeypatch, build):
    """Build a kernel, reading the rows per tile it takes; returns the
    kernel and the stripe counts at its tile edges."""
    rows = []
    real = striping._tile_rows

    def spy(width):
        rows.append(real(width))
        return rows[-1]

    monkeypatch.setattr(striping, "_tile_rows", spy)
    kernel = build()
    monkeypatch.setattr(striping, "_tile_rows", real)
    (r,) = rows
    return kernel, [1, r - 1, r, r + 1, 2 * r + 3]


@pytest.mark.parametrize("q", [257, 65521])
@pytest.mark.parametrize("code", CODES, ids=CODE_IDS)
def test_every_kernel_matches_the_reference_at_each_tile_edge(code, q, monkeypatch):
    params, source, coded = periodic_stripes(code, q)
    rng = np.random.default_rng(q)

    encode, counts = tile_edge_counts(monkeypatch, lambda: striping.stripe_encoder(params))
    for count in counts:
        period = np.arange(count) % PERIOD
        assert np.array_equal(encode(source[period]), coded[:, period]), ("encoder", count)

    nodes = sorted(int(j) for j in rng.choice(params.n, params.k, replace=False) + 1)
    decode, counts = tile_edge_counts(monkeypatch, lambda: striping.stripe_decoder(params, nodes))
    for count in counts:
        period = np.arange(count) % PERIOD
        decoded = decode({j: coded[j - 1, period] for j in nodes})
        assert np.array_equal(decoded, source[period]), ("decoder", count)

    f = int(rng.integers(1, params.n + 1))
    others = [h for h in range(1, params.n + 1) if h != f]
    for d in params.helper_counts:
        helpers = sorted(int(h) for h in rng.choice(others, d, replace=False))
        rebuild, counts = tile_edge_counts(
            monkeypatch, lambda: striping.stripe_repairer(params, f, helpers)
        )
        for count in counts:
            period = np.arange(count) % PERIOD
            rebuilt = rebuild({h: coded[h - 1, period] for h in helpers})
            assert np.array_equal(rebuilt, coded[f - 1, period]), ("repairer", d, count)


def test_the_kernels_return_u2_and_the_writer_writes_the_encoder_payload_as_is(tmp_path, monkeypatch):
    params = derive_params(3, 2, 7)
    source = np.random.default_rng(3).integers(0, 256, (6, params.file_symbols))
    coded = striping.stripe_encoder(params)(source)
    assert coded.dtype == np.dtype("<u2") and coded.flags.c_contiguous
    assert coded.shape == (params.n, 6, params.alpha)
    decoded = striping.stripe_decoder(params, (1, 2, 3))({j: coded[j - 1] for j in (1, 2, 3)})
    assert decoded.dtype == np.dtype("<u2") and decoded.shape == (6, params.file_symbols)
    rebuilt = striping.stripe_repairer(params, 1, (2, 3, 4, 5))({h: coded[h - 1] for h in (2, 3, 4, 5)})
    assert rebuilt.dtype == np.dtype("<u2") and rebuilt.shape == (6, params.alpha)

    written = []
    real_write = shardio.AtomicFile.write
    monkeypatch.setattr(
        shardio.AtomicFile, "write", lambda self, data: (written.append(data), real_write(self, data))
    )
    header = header_for(params, 2, 6 * params.file_symbols)
    with ShardWriter(tmp_path / "x.shard02", header) as writer:
        writer.write(coded[1])
    assert np.shares_memory(written[-1], coded)  # no copy
