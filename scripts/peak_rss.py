#!/usr/bin/env python3
"""Run a command and fail when its peak resident set size exceeds a limit.

    python scripts/peak_rss.py --limit-mib 260 -- python -m kahlercheck run ...

The peak is ``getrusage(RUSAGE_CHILDREN).ru_maxrss`` once the command has
exited: the largest resident set of any waited-for descendant, in KiB on
Linux.  Prints it, then exits with the command's own code when that is not
0, with 1 when the peak exceeds the limit, and with 0 otherwise.
"""

import argparse
import resource
import subprocess
import sys


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--limit-mib", type=float, required=True)
    ap.add_argument("command", nargs=argparse.REMAINDER,
                    help="the command to run, after --")
    args = ap.parse_args(argv)
    cmd = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not cmd:
        ap.error("no command given")
    code = subprocess.run(cmd).returncode
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print(f"peak RSS {peak:.1f} MiB, limit {args.limit_mib:.1f} MiB")
    if code != 0:
        return code
    return 1 if peak > args.limit_mib else 0


if __name__ == "__main__":
    sys.exit(main())
