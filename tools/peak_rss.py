"""Run one chipfire command in this process and hold its peak RSS under a limit.

    PYTHONPATH=src python tools/peak_rss.py MAX_MB COMMAND [ARGS...]

The command's stdout, stderr and exit code are its own.  Once it has ended,
one more stderr line gives VmHWM, the peak resident set of this process
(Linux only), and a peak of MAX_MB or more turns an exit code of 0 into 1.
The interpreter and the imports count toward the peak: about 21 MB on
Python 3.11.
"""

from __future__ import annotations

import sys

from chipfire import cli


def peak_mb() -> float:
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) / 1024


def main(argv: list[str]) -> int:
    limit, command = float(argv[0]), argv[1:]
    code = cli.main(command)
    peak = peak_mb()
    print(f"VmHWM {peak:.1f} MB, limit {limit:g} MB", file=sys.stderr)
    if peak >= limit:
        print(f"error: peak RSS {peak:.1f} MB is not below {limit:g} MB", file=sys.stderr)
        return code or 1
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
