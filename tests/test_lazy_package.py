# tests/test_lazy_package.py
#
# `import pmba` imports no submodule: each public name is imported from its
# home module on first access, and each CLI command imports only the modules
# it runs. The module sets are read in fresh child processes, since this
# process has long since imported every module.
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import pmba
from pmba.cli import main

ROOT = Path(__file__).resolve().parent.parent
SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(pmba.__path__))
CODEC = {"pmba.striping", "pmba.encoder", "pmba.reconstructor", "pmba.repairer"}


def pmba_modules_after(code, *args, cwd=None):
    """The sorted pmba.* entries of sys.modules once `code` has run in a
    fresh interpreter on `args`; `code` may print, as this reads the last line."""
    probe = (
        f"{code}\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'pmba')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe, *args],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_every_public_name_is_the_object_its_home_module_defines():
    assert len(pmba.__all__) == 36
    for name in pmba.__all__:
        home = importlib.import_module(f"pmba.{pmba._HOME[name]}")
        value = getattr(pmba, name)
        assert value is getattr(home, name), name
        assert getattr(value, "__module__", home.__name__) == home.__name__, name


def test_the_name_table_and_all_hold_the_same_names():
    assert sorted(pmba._HOME) == sorted(pmba.__all__)
    assert len(set(pmba.__all__)) == len(pmba.__all__)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from pmba import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(pmba.__all__)
    fresh = (
        "from pmba import *\n"
        f"assert {{n for n in dir() if not n.startswith('_')}} == {set(pmba.__all__)!r}"
    )
    assert "pmba.cluster" in pmba_modules_after(fresh)


def test_an_unknown_attribute_is_refused_by_name():
    with pytest.raises(AttributeError, match="no_such_name"):
        pmba.no_such_name
    assert not hasattr(pmba, "striping_")


def test_a_bare_import_loads_no_submodule_but_lists_and_resolves_each():
    assert pmba_modules_after("import pmba") == {"pmba"}
    listed = (
        "import pmba\n"
        f"assert {{*pmba.__all__, *{SUBMODULES!r}}} <= set(dir(pmba)), dir(pmba)"
    )
    assert pmba_modules_after(listed) == {"pmba"}  # dir() lists names it has not loaded
    check = (
        "import types, pmba\n"
        f"for m in {SUBMODULES!r}:\n"
        "    assert isinstance(getattr(pmba, m), types.ModuleType), m\n"
        "    assert getattr(pmba, m).__name__ == 'pmba.' + m, m"
    )
    assert pmba_modules_after(check) == {"pmba", *(f"pmba.{m}" for m in SUBMODULES)}


RUN_MAIN = "import sys, pmba.cli\nassert pmba.cli.main(sys.argv[1:]) == 0"
CODE = ["--k", "3", "--delta", "2", "--n", "7"]
SHARDS = [f"s/data.bin.shard0{j}" for j in range(1, 8)]
COMMANDS = {
    "verify": ["verify", *SHARDS, "--manifest", "s/data.bin.manifest"],
    "params show": ["params", "show", *CODE, "--compare"],
    "encode": ["encode", "data.bin", "-o", "e", *CODE],
    "reconstruct": ["reconstruct", SHARDS[1], SHARDS[3], SHARDS[6], "-o", "out.bin"],
    "repair": ["repair", *SHARDS[:4], "-f", "6", "--out", "r.shard06"],
    "simulate": ["simulate", *CODE, "--rounds", "1"],
}
LEAN = {"pmba", *(f"pmba.{m}" for m in ("cli", "field", "matrix", "params", "shardio"))}


@pytest.fixture(scope="module")
def shards(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("lazy")
    (tmp / "data.bin").write_bytes(bytes(range(256)) * 40)
    assert main(["encode", str(tmp / "data.bin"), "-o", str(tmp / "s"), *CODE]) == 0
    return tmp


@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_loads_only_the_modules_it_runs(shards, command):
    loaded = pmba_modules_after(RUN_MAIN, *COMMANDS[command], cwd=shards)
    if command in ("verify", "params show"):
        assert loaded == LEAN
    else:
        assert CODEC <= loaded
    assert ("pmba.cluster" in loaded) == (command == "simulate")
