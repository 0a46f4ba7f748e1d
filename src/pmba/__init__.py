"""Product-matrix MSR erasure code with bandwidth-adaptive exact repair.

Encode a stripe of F = k * alpha symbols across n nodes so that any k
nodes reconstruct it and any single failed node is rebuilt exactly from
any d helpers, for every d in D = {2(k-1), ..., (delta+1)(k-1)}, with each
helper sending only alpha / (d-k+1) symbols.

`import pmba` loads no submodule: each public name, and each submodule as
`pmba.<submodule>`, is imported on first access (PEP 562), so a program
pays only for the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# each public name, by the submodule that defines it
_HOMES = {
    "cluster": ("CSV_HEADER", "Cluster", "HelperPolicy", "LedgerEntry"),
    "encoder": (
        "MessageMatrix",
        "NodeShard",
        "build_message_matrix",
        "coefficient_matrix",
        "encode_all",
        "encode_node",
    ),
    "field": ("FieldElement", "PrimeField", "is_prime", "smallest_prime_geq"),
    "matrix": (
        "InconsistencyError",
        "Matrix",
        "SingularMatrixError",
        "build_gvm",
        "invert",
        "mat_mul",
        "solve_symmetric_pair",
        "transpose",
    ),
    "params": ("CodeParams", "comparison_subpacketization", "derive_params", "lcm_upto"),
    "reconstructor": ("ReconstructionSession", "reconstruct"),
    "repairer": ("RepairBundle", "make_repair_bundle", "repair", "session_shape"),
    "shardio": ("ShardFormatError", "ShardHeader", "read_shard", "write_shard"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
_SUBMODULES = (*_HOMES, "cli", "striping")

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
        globals()[name] = value  # later lookups skip this hook
        return value
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)  # binds pmba.<name>
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
