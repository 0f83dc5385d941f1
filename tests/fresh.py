"""Runs in a fresh interpreter, whose imports and free lists start empty, with
the package's ``src`` first on its path and 80 columns for argparse."""

import os
import subprocess
import sys
from pathlib import Path

import fanolg

# fanolg.cli.main(argv) under an optional address-space cap, timed from the
# call, with tracemalloc started just before it when asked; the status line
# "exit seconds peak" follows its output on a line of its own, the peak 0 when
# untraced
MAIN = """\
import resource, sys, time, tracemalloc
cap, traced, *argv = sys.argv[1:]
if int(cap):
    resource.setrlimit(resource.RLIMIT_AS, (int(cap), int(cap)))
from fanolg.cli import main
if int(traced):
    tracemalloc.start()
start = time.perf_counter()
code = main(argv)
print(f"\\n{code} {time.perf_counter() - start} {tracemalloc.get_traced_memory()[1]}")
"""


def environment():
    src = str(Path(fanolg.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, "COLUMNS": "80"}


def python(*args, timeout=60):
    """``python *args``, with stdout and stderr captured as text, stopped
    after ``timeout`` seconds."""
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=environment(),
        timeout=timeout,
    )


def timed_main(*argv, address_space=0, traced=False, timeout=60):
    """(exit, seconds, traced peak in bytes, stdout, stderr) of
    ``fanolg.cli.main(argv)``, under an address-space cap of ``address_space``
    bytes unless it is 0, stopped after ``timeout`` seconds."""
    done = python("-c", MAIN, str(address_space), str(int(traced)), *argv, timeout=timeout)
    assert done.returncode == 0, done.stderr
    out, _, status = done.stdout[:-1].rpartition("\n")
    code, seconds, peak = status.split()
    return int(code), float(seconds), int(peak), out, done.stderr
