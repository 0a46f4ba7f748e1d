"""The public API of `pmba`: its names, their signatures and the fields of
its dataclasses. A change here is a change every caller sees."""

import dataclasses
import inspect

import pytest

import pmba

PUBLIC_NAMES = [
    "CSV_HEADER",
    "Cluster",
    "CodeParams",
    "FieldElement",
    "HelperPolicy",
    "InconsistencyError",
    "LedgerEntry",
    "Matrix",
    "MessageMatrix",
    "NodeShard",
    "PrimeField",
    "ReconstructionSession",
    "RepairBundle",
    "ShardFormatError",
    "ShardHeader",
    "SingularMatrixError",
    "build_gvm",
    "build_message_matrix",
    "coefficient_matrix",
    "comparison_subpacketization",
    "derive_params",
    "encode_all",
    "encode_node",
    "invert",
    "is_prime",
    "lcm_upto",
    "make_repair_bundle",
    "mat_mul",
    "read_shard",
    "reconstruct",
    "repair",
    "session_shape",
    "smallest_prime_geq",
    "solve_symmetric_pair",
    "transpose",
    "write_shard",
]

SIGNATURES = {
    "Cluster": "(params: 'CodeParams')",
    "CodeParams": "(n: 'int', k: 'int', delta: 'int', q: 'int', eval_points: 'tuple') -> None",
    "FieldElement": "(value: 'int', field: 'PrimeField')",
    "HelperPolicy": "(strategy: 'str', fixed_d: 'int | None' = None) -> None",
    "LedgerEntry": (
        "(stripe_count: 'int', failed: 'int', d: 'int', helpers: 'tuple', "
        "symbols_moved: 'int') -> None"
    ),
    "Matrix": "(field: 'PrimeField', data)",
    "MessageMatrix": "(blocks: 'tuple', assembled: 'Matrix') -> None",
    "NodeShard": "(node_index: 'int', eval_point: 'FieldElement', symbols: 'tuple') -> None",
    "PrimeField": "(modulus: 'int')",
    "ReconstructionSession": "(shards, params: 'CodeParams')",
    "RepairBundle": (
        "(helper_index: 'int', failed_index: 'int', d: 'int', symbols: 'tuple') -> None"
    ),
    "ShardHeader": (
        "(q: 'int', n: 'int', k: 'int', delta: 'int', node_index: 'int', "
        "stripe_count: 'int', original_length: 'int', eval_points: 'tuple') -> None"
    ),
    "build_gvm": "(points, start_power: 'int', cols: 'int') -> 'Matrix'",
    "build_message_matrix": "(source, params: 'CodeParams') -> 'MessageMatrix'",
    "coefficient_matrix": "(params: 'CodeParams') -> 'Matrix'",
    "comparison_subpacketization": "(n: 'int', delta: 'int') -> 'int'",
    "derive_params": (
        "(k: 'int', delta: 'int', n: 'int', q: 'int | None' = None, eval_points=None) "
        "-> 'CodeParams'"
    ),
    "encode_all": "(m: 'MessageMatrix', params: 'CodeParams') -> 'tuple'",
    "encode_node": "(m: 'MessageMatrix', params: 'CodeParams', node_index: 'int') -> 'NodeShard'",
    "invert": "(a: 'Matrix') -> 'Matrix'",
    "is_prime": "(x: 'int') -> 'bool'",
    "lcm_upto": "(delta: 'int') -> 'int'",
    "make_repair_bundle": (
        "(helper_shard: 'NodeShard', f: 'int', d: 'int', params: 'CodeParams') "
        "-> 'RepairBundle'"
    ),
    "mat_mul": "(a: 'Matrix', b: 'Matrix') -> 'Matrix'",
    "read_shard": "(path)",
    "reconstruct": "(shards, params: 'CodeParams') -> 'tuple'",
    "repair": "(f: 'int', bundles, params: 'CodeParams') -> 'NodeShard'",
    "session_shape": "(params: 'CodeParams', d: 'int')",
    "smallest_prime_geq": "(x: 'int') -> 'int'",
    "solve_symmetric_pair": "(x: 'Matrix', phi: 'Matrix', delta: 'Matrix')",
    "transpose": "(a: 'Matrix') -> 'Matrix'",
    "write_shard": "(path, header: 'ShardHeader', symbols: 'np.ndarray') -> 'None'",
}

# exception classes have no signature of their own; each is a ValueError
ERRORS = ["InconsistencyError", "ShardFormatError", "SingularMatrixError"]

DATACLASS_FIELDS = {
    "CodeParams": ("n", "k", "delta", "q", "eval_points"),
    "ShardHeader": (
        "q", "n", "k", "delta", "node_index", "stripe_count", "original_length", "eval_points",
    ),
    "NodeShard": ("node_index", "eval_point", "symbols"),
    "RepairBundle": ("helper_index", "failed_index", "d", "symbols"),
    "LedgerEntry": ("stripe_count", "failed", "d", "helpers", "symbols_moved"),
    "MessageMatrix": ("blocks", "assembled"),
    "HelperPolicy": ("strategy", "fixed_d"),
}


def test_all_lists_exactly_the_public_names_and_each_resolves():
    assert sorted(pmba.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(pmba, name) is not None, name
    assert isinstance(pmba.CSV_HEADER, str)
    assert sorted([*SIGNATURES, *ERRORS, "CSV_HEADER"]) == PUBLIC_NAMES


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_public_signature_is_unchanged(name):
    assert str(inspect.signature(getattr(pmba, name))) == SIGNATURES[name]


@pytest.mark.parametrize("name", ERRORS)
def test_public_errors_are_value_errors(name):
    assert issubclass(getattr(pmba, name), ValueError)


@pytest.mark.parametrize("name", sorted(DATACLASS_FIELDS))
def test_dataclass_fields_are_unchanged(name):
    fields = tuple(f.name for f in dataclasses.fields(getattr(pmba, name)))
    assert fields == DATACLASS_FIELDS[name]
