"""No command changes the package's module-level state.

Every output is a pure function of its input and everything user-facing
is shared across threads, so a memo belongs in an ``lru_cache`` (which is
not a module-level container), never in a module-level dict, list or set
that a command grows in place.  Nor does the environment reach an output:
the size guards are module constants.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import chartab

COMMANDS = [
    ["table", "dihedral", "3"],
    ["stats", "psl2even", "3"],
    ["witness", "--stat", "zI", "--scope", "group", "--target", "1/2", "--eps", "1/20"],
    ["scan", "--stat", "zI", "--scope", "group", "--family-params", "dihedral:2", "--kmax", "5"],
    ["verify", "dihedral", "2"],
]

# Run in a fresh interpreter, so that nothing an earlier test ran has
# warmed a container.  Prints the names of the containers that differ
# from their copy taken before the commands ran.
SCRIPT = r"""
import contextlib, copy, io, json, sys
import chartab.cli

def containers():
    return {
        f"{name}.{attr}": value
        for name, module in list(sys.modules.items())
        if name == "chartab" or name.startswith("chartab.")
        for attr, value in vars(module).items()
        if not attr.startswith("__") and isinstance(value, (dict, list, set))
    }

before = copy.deepcopy(containers())
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(chartab.cli.main(argv))
after = containers()
changed = sorted(k for k in before.keys() | after.keys() if before.get(k) != after.get(k))
print(json.dumps({"codes": codes, "changed": changed}))
"""


def test_no_command_changes_module_state():
    env = dict(os.environ, PYTHONPATH=str(Path(chartab.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(COMMANDS)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["codes"] == [0] * len(COMMANDS)
    assert report["changed"] == []


# Each command is past a guard of 10 (classes for table and stats, group
# elements for verify), so a variable that set a guard would make it exit 1.
GUARDED_COMMANDS = [
    ["table", "dihedral", "5"],
    ["stats", "psl2even", "5"],
    ["verify", "dihedral", "3"],
]
LIMIT_VARIABLES = {"CHARTAB_CLASS_LIMIT": "10", "CHARTAB_ORACLE_LIMIT": "10"}


def test_the_environment_changes_no_output():
    env = dict(os.environ, PYTHONPATH=str(Path(chartab.__file__).resolve().parents[1]))
    for argv in GUARDED_COMMANDS:
        plain, limited = (
            subprocess.run(
                [sys.executable, "-m", "chartab.cli", *argv],
                capture_output=True, env=variables, timeout=120,
            )
            for variables in (env, dict(env, **LIMIT_VARIABLES))
        )
        assert plain.returncode == limited.returncode == 0, (argv, limited.stderr)
        assert limited.stdout == plain.stdout, argv
