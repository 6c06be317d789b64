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


def test_scenario_commands_import_no_numpy_ma(tmp_path):
    # np.quantile and np.unique import numpy.ma (about 24 ms of start-up) on first use
    script = (
        "import sys, tmcc_qkd.cli as cli\n"
        "out = sys.argv[1]\n"
        "for argv in (['simulate', '--pulses', '2000', '--out', out + '/sim'],\n"
        "             ['attack-clone', '--clone-strategy', 'tmcc-clone', '--pulses', '2000', '--out', out + '/clone'],\n"
        "             ['detect', '--pulse-log', out + '/sim/pulses.csv', '--out', out + '/detect']):\n"
        "    assert cli.main([*argv, '--lambda', '2', '--epsilon', '0.05']) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(tmcc_qkd.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
