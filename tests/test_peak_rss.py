"""tools/peak_rss: a chipfire command's own output and exit code, and its peak RSS held
under a limit."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import chipfire

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "peak_rss.py"
_ENV = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(chipfire.__file__))}


def run(*argv):
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=_ENV, timeout=60
    )


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="VmHWM is read from /proc")
@pytest.mark.parametrize(
    "limit, argv, code",
    [
        ("1000", ["fires", "--chips", "3"], 0),
        ("1", ["fires", "--chips", "3"], 1),  # over the limit
        ("1", ["fires", "--chips", "0"], 2),  # the command's own failure is kept
    ],
)
def test_the_command_runs_as_it_would_and_its_peak_is_held(limit, argv, code):
    proc, direct = run(str(_TOOL), limit, *argv), run("-m", "chipfire.cli", *argv)
    assert (proc.returncode, proc.stdout) == (code, direct.stdout)
    assert proc.stderr.startswith(direct.stderr)
    peak, *over = proc.stderr[len(direct.stderr) :].splitlines()
    assert peak.startswith("VmHWM ") and peak.endswith(f", limit {limit} MB")
    assert [line.split(" MB ")[0] for line in over] == (
        ["error: peak RSS " + peak.split()[1]] if limit == "1" else []
    )
