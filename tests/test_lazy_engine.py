"""Every module loads on first use: a plain `import burnside` loads
`partitions` alone, each command loads only the modules it runs, and the
Schur-side commands never import `burnside.engine`, while every exported
name still resolves from the package and every engine name from the CLI
module."""

import copy
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import burnside
from burnside import CapExceeded, GroupFileError, cli, engine, marks, partitions, schur

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_fresh(script: str) -> str:
    """Run `script` in a new interpreter that imports the package from the
    source tree; return its stdout."""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# the package's modules loaded so far, as a fresh interpreter prints them
LOADED = "sorted(m[len('burnside.'):] for m in sys.modules if m.startswith('burnside.'))"


def test_package_import_leaves_out_the_engine():
    # clearing the caches loads no module to clear
    script = f"import sys, burnside; burnside.clear_caches(); print({LOADED})"
    assert run_fresh(script) == "['partitions']\n"


# the modules loaded by `from burnside import cli`, and what each command
# adds: every module loads when a command first needs it
LOADED_BY_IMPORT = ["cli", "partitions"]
LOADS = {
    "lambda": ["ring", "schur"],
    "sigma": ["ring", "schur"],
    "mul": ["ring", "schur"],
    "marks": ["marks"],
    "verify": ["marks", "ring", "schur", "verify"],
}


@pytest.mark.parametrize("argv", [
    ["lambda", "--n", "6", "--i", "3", "--method", "both"],
    ["sigma", "--n", "4", "--i", "3"],
    ["mul", "--n", "4", "--a", "[2,2]", "--b", "[3,1]"],
    ["marks", "--n", "6"],
    ["verify", "--n-max", "4"],
])
def test_schur_commands_leave_out_the_engine(argv):
    script = (
        "import contextlib, io, json, sys\n"
        "from burnside import cli\n"
        f"print({LOADED})\n"
        f"argv = {json.dumps(argv)}\n"
        "codes = []\n"
        "for fmt in ('text', 'structured'):\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "        codes.append(cli.main(argv + ['--format', fmt]))\n"
        "    assert out.getvalue()\n"
        f"print(codes, {LOADED})\n"
    )
    loaded = sorted(LOADED_BY_IMPORT + LOADS[argv[0]])
    assert run_fresh(script) == f"{LOADED_BY_IMPORT}\n[0, 0] {loaded}\n"


def test_engine_commands_load_the_engine_and_answer(tmp_path):
    group = tmp_path / "s3.grp"
    group.write_text("(1 2)\n(1 2 3)\n")
    script = (
        "import contextlib, io, json, sys\n"
        "from burnside import cli\n"
        f"print({LOADED})\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        f"    oracle = cli.main(['oracle', '--group', {str(group)!r}, '--i', '2',\n"
        "                       '--format', 'structured'])\n"
        "equal = json.loads(out.getvalue())['payload']['equal']\n"
        f"print(oracle, equal, {LOADED})\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    indres = cli.main(['indres', '--i', '2', '--n', '3'])\n"
        f"print(indres, out.getvalue().splitlines()[-1], {LOADED})\n"
    )
    loaded = ["cli", "engine", "partitions", "ring"]
    assert run_fresh(script) == f"{LOADED_BY_IMPORT}\n0 True {loaded}\n0 PASS {loaded}\n"


def test_oracle_refuses_a_negative_power_before_the_group_file(capsys, tmp_path):
    code = cli.main(["oracle", "--group", str(tmp_path / "nope.grp"), "--i", "-1"])
    assert code == 2
    assert capsys.readouterr().out == "error: need i >= 0, got -1\n"


def test_every_exported_name_is_its_home_modules_object():
    homes = (partitions, schur, marks, engine)
    for name in burnside.__all__:
        value = getattr(burnside, name)
        assert any(getattr(home, name, None) is value for home in homes) or (
            name == "clear_caches"
        ), name
    for name in burnside._ENGINE_NAMES:
        assert getattr(burnside, name) is getattr(engine, name)
    assert burnside.CapExceeded is engine.CapExceeded is partitions.CapExceeded
    assert burnside.GroupFileError is engine.GroupFileError is partitions.GroupFileError


def test_caps_live_in_partitions_alone():
    # so a monkeypatch of a stale copy in the engine fails loudly
    for name in ("DEFAULT_GROUP_CAP", "GROUP_CAP_ENV", "DEFAULT_POINT_CAP", "TABLE_CAP",
                 "group_cap_default"):
        assert hasattr(partitions, name) and not hasattr(engine, name), name


def test_engine_names_are_served_not_stored():
    assert len(burnside._ENGINE_NAMES) == 27
    for name in burnside._ENGINE_NAMES:
        assert getattr(engine, name).__module__ == "burnside.engine", name
    for name in cli._ENGINE_NAMES:
        assert getattr(cli, name) is getattr(engine, name)
        assert name not in vars(cli)
    assert not burnside._ENGINE_NAMES & set(vars(burnside))


def test_dir_and_star_import_cover_all():
    assert set(burnside.__all__) <= set(dir(burnside))
    namespace = {}
    exec("from burnside import *", namespace)
    assert set(burnside.__all__) <= set(namespace)
    for name in burnside.__all__:
        assert namespace[name] is getattr(burnside, name)


@pytest.mark.parametrize("module", [burnside, cli])
def test_unknown_attribute_raises_attribute_error(module):
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
    assert not hasattr(module, "no_such_name")


ROUND_TRIPS = [lambda e: pickle.loads(pickle.dumps(e)), copy.copy, copy.deepcopy]


@pytest.mark.parametrize("round_trip", ROUND_TRIPS, ids=["pickle", "copy", "deepcopy"])
def test_cap_exceeded_survives_round_trips(round_trip):
    exc = CapExceeded("point-count", 5, "P_(2,1)")
    again = round_trip(exc)
    assert type(again) is CapExceeded
    assert (again.kind, again.cap, again.construction) == ("point-count", 5, "P_(2,1)")
    assert str(again) == str(exc) == "point-count cap 5 exceeded while building P_(2,1)"


@pytest.mark.parametrize("round_trip", ROUND_TRIPS, ids=["pickle", "copy", "deepcopy"])
def test_group_file_error_survives_round_trips(round_trip):
    exc = GroupFileError(3, "bad")
    again = round_trip(exc)
    assert type(again) is GroupFileError and isinstance(again, ValueError)
    assert again.line_number == 3
    assert str(again) == str(exc) == "line 3: bad"
