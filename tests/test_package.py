import os
import subprocess
import sys
import types
from pathlib import Path

import tmcc_qkd


def test_all_lists_exactly_the_reexported_names():
    public = {
        name
        for name, value in vars(tmcc_qkd).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(tmcc_qkd.__all__) == sorted(public)


def test_commands_import_no_scipy(tmp_path):
    # scipy.stats and scipy.optimize cost over 1 s of start-up CPU in every
    # command; the package and the CLI must load with numpy alone
    script = (
        "import sys, tmcc_qkd, tmcc_qkd.cli as cli\n"
        "out = sys.argv[1]\n"
        "assert cli.main(['figures', '--lambda', '2', '--out', out + '/figs']) == 0\n"
        "assert cli.main(['attack-clone', '--lambda', '2', '--clone-strategy', 'tmcc-clone',\n"
        "                 '--pulses', '200', '--out', out + '/clone']) == 0\n"
        "print(sorted(name for name in sys.modules if name.startswith('scipy')))\n"
    )
    src = str(Path(tmcc_qkd.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
