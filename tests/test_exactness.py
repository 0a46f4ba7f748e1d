# tests/test_exactness.py
#
# The striping kernels run their modular products in float32 BLAS where
# every sum stays below 2**22, and in float64 BLAS where it stays below
# 2**51. These tests pin what keeps that exact: the mod-q reduction at and
# around every multiple of q up to the largest sum each dtype allows, the
# guard that picks the dtype or refuses, each kernel against an int64
# reference at the default and the largest modulus and at every edge of
# its stripe tiles, a kernel whose held buffers serve batches that shrink
# and grow again, a chain of two stages and its first stage alone, one
# column per array among them, against int64 references, and the dtype
# and layout the kernels hand to the shard writer.
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

from pmba import shardio, striping
from pmba.encoder import NodeShard
from pmba.matrix import InconsistencyError
from pmba.params import derive_params
from pmba.repairer import make_repair_bundle, session_shape
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
    assert picked == {kernel: {np.float64} for kernel in ("encoder", "decoder", "bundler", "repairer")}


# The dtype each kernel of the default grid runs at the default q = 257,
# where a product of two residues is at most 2**16, so float32 takes up to
# 63 terms. A repairer runs two stages: its bundler sums seg = d-k+1 <= 10
# terms, and its combine stage ("repairer") d*beta, which at (3,5,20) is
# 144 (d = 12) to 240 (d = 4), so there the bundles run float32 and the
# combine float64.
DEFAULT_Q_DTYPES = {
    (3, 2, 7): {"encoder": np.float32, "decoder": np.float32, "bundler": np.float32, "repairer": np.float32},
    (4, 3, 13): {"encoder": np.float32, "decoder": np.float32, "bundler": np.float32, "repairer": np.float32},
    (3, 5, 20): {"encoder": np.float32, "decoder": np.float32, "bundler": np.float32, "repairer": np.float64},
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


def tile_rows(monkeypatch, build, tiles=1):
    """Run `build`, which sizes `tiles` tiles; returns what it built and the
    stripes per tile each takes."""
    rows = []
    real = striping._tile_rows

    def spy(width):
        rows.append(real(width))
        return rows[-1]

    monkeypatch.setattr(striping, "_tile_rows", spy)
    kernel = build()
    monkeypatch.setattr(striping, "_tile_rows", real)
    assert len(rows) == tiles
    return kernel, rows


def tile_edge_counts(monkeypatch, build, tiles=1):
    """Run `build`, which sizes `tiles` tiles; returns what it built and the
    stripe counts at every tile's edges."""
    kernel, rows = tile_rows(monkeypatch, build, tiles)
    return kernel, sorted({count for r in rows for count in (1, r - 1, r, r + 1, 2 * r + 3)})


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
        # the tile of the chain's self-check, which real calls of d helpers take too
        rebuild, counts = tile_edge_counts(monkeypatch, lambda: striping.stripe_repairer(params, f, helpers))
        for count in counts:
            period = np.arange(count) % PERIOD
            rebuilt = rebuild({h: coded[h - 1, period] for h in helpers})
            assert np.array_equal(rebuilt, coded[f - 1, period]), ("repairer", d, count)


# a chain's first stage sums 5 terms in float32; its second sums blocks*b,
# which at 3*22 and 64*1 passes the 63 terms float32 takes at q = 257; at
# b = 1 the first stage's products are held row by row
CHAINS = {
    "f32-f32": (3, 3, np.float32),
    "f32-f64": (22, 3, np.float64),
    "b1-f32-f32": (1, 3, np.float32),
    "b1-f32-f64": (1, 64, np.float64),
}


@pytest.mark.parametrize("chain", CHAINS)
def test_a_two_stage_product_is_its_two_one_stage_products_composed(chain, monkeypatch):
    (b, blocks, second), q, a, c = CHAINS[chain], 257, 5, 4
    rng = np.random.default_rng(b)
    first = (rng.integers(0, q, (a, b)), a, "bundler")
    then = (rng.integers(0, q, (blocks * b, c)), blocks * b, "repairer")
    picked = record_dtypes(monkeypatch)

    def build():
        # each call sizes its own tile, so one call of one stripe reads each size
        one, two, chain = (striping._tiled_product(stages, q) for stages in ([first], [then], [first, then]))
        probe = [np.zeros((1, a), int)] * blocks
        two([one(probe)])
        chain(probe)
        return one, two, chain

    # each one-stage product's tile and the chain's
    (one, two, chain), counts = tile_edge_counts(monkeypatch, build, tiles=3)
    assert picked == {"bundler": {np.float32}, "repairer": {second}}
    reduced = []  # the dtype of each tile of products reduced
    real = striping._reduce
    monkeypatch.setattr(striping, "_reduce", lambda x, *args, **kw: (reduced.append(x.dtype), real(x, *args, **kw))[1])
    for count in counts:
        arrays = [rng.integers(0, q, (count, a)) for _ in range(blocks)]
        arrays[0][0] = q - 1
        reduced.clear()
        got = chain(arrays)
        # every tile runs both stages, each in its own dtype
        assert reduced == [np.float32, second] * (len(reduced) // 2) and reduced, count
        assert got.dtype == np.dtype("<u2") and got.flags.c_contiguous and got.shape == (count, c)
        # at b = 1 the first stage alone is `Cluster`'s max-d bundle at delta <= 2
        bundles = one(arrays)
        assert bundles.dtype == np.dtype("<u2") and bundles.flags.c_contiguous
        assert np.array_equal(bundles, np.concatenate([x @ first[0] % q for x in arrays], axis=1)), count
        assert np.array_equal(got, two([bundles])), count
        assert np.array_equal(got, bundles.astype(int) @ then[0] % q), count


def test_a_bundler_sizes_its_tile_by_the_helpers_each_call_gives(monkeypatch):
    params, f, d = derive_params(4, 3, 13), 5, 6
    bundle = striping.stripe_bundler(params, f, d)
    _, beta = session_shape(params, d)
    _, payloads = striping._self_check_batch(params)
    helpers = [h for h in range(1, params.n + 1) if h != f][:d]
    widths = []
    real = striping._tile_rows
    monkeypatch.setattr(striping, "_tile_rows", lambda width: (widths.append(width), real(width))[1])
    one = bundle({1: payloads[0]})
    every = bundle({h: payloads[h - 1] for h in helpers})
    # a helper's alpha payload symbols and, counted twice, its beta bundle symbols
    assert widths == [params.alpha + 2 * beta, params.alpha + 2 * d * beta]
    assert np.array_equal(every[:, :beta], one)


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


# ---------------------------------------------------------------------------
# the helpers' side of a repair: one helper's bundles for a batch
# ---------------------------------------------------------------------------


def stepwise_bundles(params, payload, h, f, d):
    """Node h's bundle symbols for node f, one `make_repair_bundle` per stripe."""
    point, field = params.eval_point(h), params.field
    bundles = [
        make_repair_bundle(NodeShard(h, point, field.elements(row)), f, d, params)
        for row in payload
    ]
    return np.array([[s.value for s in b.symbols] for b in bundles])


# seg = d-k+1 <= 10 in this grid: 10 * 256**2 < 2**22, while one product
# mod 65521 already passes 2**22
BUNDLER_DTYPES = {257: np.float32, 65521: np.float64}


@pytest.mark.parametrize("q", [257, 65521])
@pytest.mark.parametrize("code", CODES, ids=CODE_IDS)
def test_the_bundler_matches_the_stepwise_bundles_for_every_f_and_d(code, q, monkeypatch):
    params, _, coded = periodic_stripes(code, q)
    picked = record_dtypes(monkeypatch)
    for f in range(1, params.n + 1):
        h = f % params.n + 1  # a helper other than f
        for d in params.helper_counts:
            seg, beta = session_shape(params, d)
            want = stepwise_bundles(params, coded[h - 1], h, f, d)
            # the d nodes after f, h first, so the dict is out of node order once they wrap
            helpers = [(f + i) % params.n + 1 for i in range(d)]
            picked.clear()
            bundle, counts = tile_edge_counts(monkeypatch, lambda: striping.stripe_bundler(params, f, d))
            assert picked == {"bundler": {BUNDLER_DTYPES[q]}}
            assert BUNDLER_DTYPES[q] is striping._check_exact(q, seg, "bundler")
            for count in counts:
                period = np.arange(count) % PERIOD
                got = bundle({h: coded[h - 1, period]})
                assert got.dtype == np.dtype("<u2") and got.shape == (count, beta)
                assert np.array_equal(got, want[period]), (f, d, count)
                # every helper's bundles side by side, in ascending node order
                together = bundle({j: coded[j - 1, period] for j in helpers})
                alone = [bundle({j: coded[j - 1, period]}) for j in sorted(helpers)]
                assert together.dtype == np.dtype("<u2") and together.flags.c_contiguous
                assert np.array_equal(together, np.concatenate(alone, axis=1)), (f, d, count)


def test_the_bundler_refuses_what_make_repair_bundle_refuses():
    params = derive_params(3, 2, 7)
    with pytest.raises(ValueError, match=r"d = 5 is not a supported helper count; valid D = \{4, 6\}"):
        striping.stripe_bundler(params, 1, 5)
    for f in (0, 8, -1):
        with pytest.raises(ValueError, match=f"failed index must be in 1..7, got {f}"):
            striping.stripe_bundler(params, f, 4)
    # the helper count is judged first, as in make_repair_bundle
    with pytest.raises(ValueError, match="valid D"):
        striping.stripe_bundler(params, 0, 5)


def test_a_repairer_is_the_bundle_stage_then_a_combine_stage_each_in_its_own_dtype(monkeypatch):
    params = derive_params(3, 5, 20)
    assert params.q == 257
    calls = []
    for name in ("_bundle_stage", "stripe_bundler", "_tiled_product"):
        real = getattr(striping, name)
        monkeypatch.setattr(striping, name, lambda *a, _n=name, _r=real: (calls.append((_n, a)), _r(*a))[1])
    picked = record_dtypes(monkeypatch)
    striping.stripe_repairer(params, 9, (1, 2, 3, 4))
    # no bundler is built: one bundle stage, chained with the combine stage in one product
    (stage_call, stage_args), (product_call, (stages, q)) = calls
    assert (stage_call, stage_args, product_call, q) == ("_bundle_stage", (params, 9, 4), "_tiled_product", 257)
    assert [kernel for _, _, kernel in stages] == ["bundler", "repairer"]
    # seg = 2 terms per bundle symbol, d*beta = 240 per rebuilt one
    assert picked == {"bundler": {np.float32}, "repairer": {np.float64}}


def test_the_repairer_reads_its_own_helpers_payloads_only():
    params = derive_params(3, 2, 7)
    coded = striping.stripe_encoder(params)(np.random.default_rng(5).integers(0, 256, (9, params.file_symbols)))
    rebuild = striping.stripe_repairer(params, 1, (2, 3, 4, 5))
    assert np.array_equal(rebuild({j: coded[j - 1] for j in range(2, 8)}), coded[0])
    with pytest.raises(KeyError):  # four payloads, but not those of its helpers
        rebuild({j: coded[j - 1] for j in (3, 4, 5, 6)})


def test_the_self_check_batch_is_made_once_per_code_and_refuses_writes(monkeypatch):
    params = derive_params(4, 3, 13)
    calls = []
    real = striping.encode_all
    monkeypatch.setattr(striping, "encode_all", lambda *a: (calls.append(a), real(*a))[1])
    striping._self_check_batch.cache_clear()
    striping.stripe_repairer(params, 1, range(2, 8))  # a bundler and a combine stage
    striping.stripe_encoder(params)
    source, payloads = striping._self_check_batch(params)
    assert len(calls) == len(source) == 2  # one stepwise encode per stripe of one batch
    for a in (source, payloads):
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 1


def test_the_bundler_refuses_past_the_bound_before_its_self_check(monkeypatch):
    params = derive_params(3, 2, 7, q=65521)
    monkeypatch.setattr(striping, "_EXACT_BELOW", (params.q - 1) ** 2)  # one term at most
    monkeypatch.setattr(striping, "_self_check_batch", lambda p: pytest.fail("self-check ran"))
    with pytest.raises(ValueError, match="the bundler sums 2 products of residues mod q = 65521"):
        striping.stripe_bundler(params, 1, 4)


@pytest.mark.parametrize("f", [1, 5])
def test_the_bundler_refuses_a_map_the_stepwise_bundle_disagrees_with(f, monkeypatch):
    params = derive_params(4, 3, 13)
    real = striping.bundle_map

    def skewed(*args):
        out = np.array(real(*args))
        out[0, 0] += 1
        return out

    monkeypatch.setattr(striping, "bundle_map", skewed)
    with pytest.raises(
        InconsistencyError, match="batched bundler and the stepwise make_repair_bundle disagree on stripe 0"
    ):
        striping.stripe_bundler(params, f, 6)


@pytest.mark.parametrize("code", CODES, ids=CODE_IDS)
def test_the_repairer_refuses_a_bundle_map_its_own_self_check_disagrees_with(code, monkeypatch):
    params = derive_params(*code)
    real = striping.bundle_map

    def skewed(*args):
        out = np.array(real(*args))
        out[0, 0] += 1
        return out

    monkeypatch.setattr(striping, "bundle_map", skewed)
    d_min, d_max = min(params.helper_counts), max(params.helper_counts)
    for f, d in ((1, d_min), (params.n, d_max)):
        helpers = [h for h in range(1, params.n + 1) if h != f][:d]
        # no bundler of its own refuses first: the chain's one check covers the bundle stage
        with pytest.raises(
            InconsistencyError, match="batched repairer and the stepwise encoder disagree on stripe 0"
        ):
            striping.stripe_repairer(params, f, helpers)


EVERY_BUILDER = {**BUILDERS, "bundler": lambda p: striping.stripe_bundler(p, 1, 4)}


@pytest.mark.parametrize("kernel", sorted(EVERY_BUILDER))
def test_each_builder_runs_one_self_check_and_builds_no_other_kernel(kernel, monkeypatch):
    params = derive_params(3, 2, 7)
    calls = []
    for name in ("stripe_encoder", "stripe_decoder", "stripe_bundler", "stripe_repairer", "_self_check"):
        real = getattr(striping, name)
        monkeypatch.setattr(striping, name, lambda *a, _n=name, _r=real, **kw: (calls.append(_n), _r(*a, **kw))[1])
    striping._self_check_batch.cache_clear()
    for _ in range(2):  # cold caches, then warm ones
        calls.clear()
        EVERY_BUILDER[kernel](params)
        assert calls == [f"stripe_{kernel}", "_self_check"]


# ---------------------------------------------------------------------------
# held buffers: a built kernel allocates its tile arrays once
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("code", CODES, ids=CODE_IDS)
def test_a_built_kernel_matches_the_reference_as_its_batches_shrink_and_grow(code, monkeypatch):
    # a smaller batch runs in a prefix of the buffers a larger one left, so
    # each batch starts at another stripe of the period: a stale value shows
    params, source, coded = periodic_stripes(code, 257)
    nodes = list(range(params.n - params.k + 1, params.n + 1))
    helpers = list(range(2, max(params.helper_counts) + 2))
    builds = {
        "encoder": lambda: striping.stripe_encoder(params),
        "decoder": lambda: striping.stripe_decoder(params, nodes),
        "repairer": lambda: striping.stripe_repairer(params, 1, helpers),
    }
    for name, build in builds.items():
        kernel, (rows,) = tile_rows(monkeypatch, build)
        for i, count in enumerate([rows, rows // 3, 1, rows]):  # full, partial, one, full
            period = (np.arange(count) + 17 * i) % PERIOD
            if name == "encoder":
                got, want = kernel(source[period]), coded[:, period]
            elif name == "decoder":
                got, want = kernel({j: coded[j - 1, period] for j in nodes}), source[period]
            else:
                got, want = kernel({h: coded[h - 1, period] for h in helpers}), coded[0, period]
            assert np.array_equal(got, want), (name, count)


# Besides its output, a call makes array views and lists, a few KiB, and
# numpy's one buffer of np.getbufsize() values, float64 at most, through
# which `_reduce` casts its differences into `<u2`. A tile array holds up to
# TILE_VALUES floats, 1 MiB in float32.
CALL_BYTES = 2**14 + 8 * np.getbufsize()


@pytest.mark.parametrize("code", CODES, ids=CODE_IDS)
def test_a_built_kernel_allocates_only_its_output_once_its_batches_stop_growing(code):
    params, source, coded = periodic_stripes(code, 257)
    period = np.arange(3 * striping.TILE_VALUES // params.file_symbols) % PERIOD  # many tiles
    d = max(params.helper_counts)
    helpers = {h: np.ascontiguousarray(coded[h - 1, period]) for h in range(2, d + 2)}
    nodes = range(params.n - params.k + 1, params.n + 1)
    calls = {  # each kernel and its batch
        "encoder": (striping.stripe_encoder(params), source[period]),
        "decoder": (striping.stripe_decoder(params, nodes), {j: coded[j - 1, period] for j in nodes}),
        "bundler": (striping.stripe_bundler(params, 1, d), helpers),
        "repairer": (striping.stripe_repairer(params, 1, helpers), helpers),
    }
    for name, (kernel, batch) in calls.items():
        kernel(batch)  # the first batch of this size may grow the buffers
        for call in (2, 3, 4):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                out = kernel(batch)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            assert peak <= out.nbytes + CALL_BYTES, (name, call, peak, out.nbytes)
