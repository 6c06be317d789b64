import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import tmcc_qkd
from test_golden import ANALYTIC_GOLDEN, GOLDEN

SRC = str(Path(tmcc_qkd.__file__).parents[1])
TESTS = str(Path(__file__).parent)
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_child(script: str, *args, **env) -> str:
    """Run `script` in a fresh interpreter that sees the package and the test
    modules, with the BLAS thread variables unset but for those in `env`;
    returns the last line it printed."""
    base = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    base["PYTHONPATH"] = os.pathsep.join([SRC, TESTS, os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)], env={**base, **env}, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_all_lists_exactly_the_reexported_names():
    # the names load on first use, so they are checked through getattr and dir, not vars()
    public = {
        name
        for name in dir(tmcc_qkd)
        if not name.startswith("_") and not isinstance(getattr(tmcc_qkd, name), types.ModuleType)
    }
    assert sorted(tmcc_qkd.__all__) == sorted(public)
    for name in tmcc_qkd.__all__:
        value = getattr(tmcc_qkd, name)
        home = getattr(value, "__module__", "")
        if not home.startswith("tmcc_qkd."):  # a constant such as MAX_LAMBDA
            home = f"tmcc_qkd.{tmcc_qkd._HOME_OF[name]}"
        assert getattr(importlib.import_module(home), name) is value, name
    namespace = {}
    exec("from tmcc_qkd import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(tmcc_qkd.__all__)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        tmcc_qkd.not_a_name


def test_package_import_loads_no_numpy():
    script = "import sys, tmcc_qkd\nprint(sorted(name for name in sys.modules if name.startswith(('numpy', 'tmcc_qkd'))))"
    assert run_child(script) == "['tmcc_qkd']"


CLI_BLAS = "import os, tmcc_qkd.cli\nprint([os.environ.get(var) for var in %r])" % (BLAS_VARS,)


def test_cli_import_defaults_blas_threads_to_one():
    assert run_child(CLI_BLAS) == "['1', '1', '1']"


def test_cli_import_keeps_a_user_thread_setting():
    assert run_child(CLI_BLAS, OPENBLAS_NUM_THREADS="3") == "['3', '1', '1']"


def test_cli_import_after_numpy_leaves_the_environment_alone():
    script = (
        "import os, numpy\n"
        "before = dict(os.environ)\n"
        "import tmcc_qkd.cli\n"
        "print(dict(os.environ) == before)\n"
    )
    assert run_child(script) == "True"


@pytest.mark.parametrize("threads", [None, "4"])
def test_outputs_do_not_depend_on_blas_threads(tmp_path, threads):
    # the CLI is imported first, as the console script does, so unset means one thread
    script = (
        "import json, os, sys, tmcc_qkd.cli as cli\n"
        "from pathlib import Path\n"
        "from test_golden import _sha, golden_digests\n"
        "out = Path(sys.argv[1])\n"
        "digests = golden_digests(out)\n"
        "assert cli.main(['figures', '--lambda', '50', '--out', str(out / 'figs')]) == 0\n"
        "digests.update({f'figures@50/{p.name}': _sha(p.read_bytes()) for p in (out / 'figs').iterdir()})\n"
        "print(json.dumps([os.environ['OPENBLAS_NUM_THREADS'], digests]))\n"
    )
    env = {"OPENBLAS_NUM_THREADS": threads} if threads else {}
    read, digests = json.loads(run_child(script, tmp_path, **env))
    assert read == (threads or "1")
    expected = {**GOLDEN, **{k: v for k, v in ANALYTIC_GOLDEN.items() if k.startswith("figures@50/")}}
    assert digests == expected


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
    assert run_child(script, tmp_path) == "[]"


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
    assert run_child(script, tmp_path) == "False"
