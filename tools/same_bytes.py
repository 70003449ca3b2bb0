"""Check that the CLI writes the same bytes as another revision.

Usage: python tools/same_bytes.py BASE_REV

Unpacks ``src`` of BASE_REV (``git archive``) into a temporary directory
and runs every argv of ``ARGVS`` through ``python -m obdk.cli`` from that
tree and from the ``src`` of this checkout, working-tree edits included.
Runs use OPENBLAS_NUM_THREADS=1 and OBDK_THREADS unset, 1 and 4. Exit
code, stdout, stderr and the file written to ``--out`` must match. Each
argv that differs is printed with the setting and the streams that
differ; the script exits 1 if any does, 0 otherwise.

A change meant to move output bytes fails this check, so it is a tool
for refactors, not part of the test suite.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

K16 = ["-U", "2", "-N", "8"]
K4096 = ["-U", "3", "-N", "32", "--mod", "qam16"]
EVERY_DETECTOR = ["--detectors", "mld,mwd-exact,mwd,mwd-hs,osd"]
OUT = "{out}"  # replaced by the path of the file that is compared

ARGVS = [
    ["ser", *K16, *EVERY_DETECTOR, "--ns", "8", "--list-size", "4",
     "--snr-db", "0,10,20,30,40,50", "--trials", "500", "--channels", "4", "--seed", "1"],
    ["ser", *K16, *EVERY_DETECTOR, "--ns", "4", "--list-size", "2",
     "--snr-db", "0,10,20,30,40,50", "--trials", "500", "--channels", "4", "--seed", "2",
     "--format", "json", "--out", OUT],
    ["ser", *K4096, "--snr-db", "5,30", "--detectors", "mld,mwd,osd", "--ns", "8",
     "--list-size", "4", "--trials", "300", "--channels", "2", "--seed", "3"],
    # 2N = 52 keys the drawn rows exactly, 2N = 54 scores them as drawn.
    ["ser", "-U", "1", "-N", "26", *EVERY_DETECTOR, "--ns", "4", "--list-size", "2",
     "--snr-db", "5,30", "--trials", "400", "--channels", "2", "--seed", "4"],
    ["ser", "-U", "1", "-N", "27", *EVERY_DETECTOR, "--ns", "6", "--list-size", "2",
     "--snr-db", "5,30", "--trials", "400", "--channels", "2", "--seed", "5"],
    ["sep", *K16, "--ns", "4", "--list-size", "2", "--snr-db", "0,10,30",
     "--trials", "500", "--channels", "4", "--seed", "6"],
    ["sep", *K4096, "--ns", "8", "--list-size", "4", "--snr-db", "5,30",
     "--trials", "200", "--channels", "2", "--seed", "7"],
    ["bound", *K16, "--ns", "8", "--list-size", "4", "--snr-db", "0,10,30",
     "--channels", "6", "--seed", "8"],
    ["bound", *K4096, "--ns", "8", "--list-size", "4", "--snr-db", "0,30",
     "--channels", "2", "--seed", "9", "--out", OUT],
    ["tradeoff", *K16, "--ns", "8", "--list-sizes", "2,4,8", "--snr-db", "0,10,30",
     "--trials", "300", "--channels", "3", "--seed", "10", "--format", "json"],
    ["tradeoff", *K4096, "--ns", "8", "--list-sizes", "16,4", "--snr-db", "5",
     "--trials", "200", "--channels", "2", "--seed", "17", "--td", "64", "--out", OUT],
    ["table-build", *K16, "--ns", "8", "--list-size", "4", "--snr-db", "5", "--seed", "11",
     "--out", OUT],
    ["table-build", *K4096, "--ns", "8", "--list-size", "4", "--snr-db", "30", "--seed", "12",
     "--out", OUT],
    # Signs longer than a pattern's K scores set the sweep's row blocks.
    ["table-build", "-U", "1", "-N", "8", "--mod", "bpsk", "--ns", "16", "--list-size", "1",
     "--snr-db", "10", "--seed", "15", "--out", OUT],
    ["bound", "-U", "2", "-N", "9", "--ns", "18", "--list-size", "3", "--snr-db", "0,30",
     "--channels", "2", "--seed", "16"],
    ["llr", *K16, "--ns", "4", "--list-size", "3", "--snr-db", "5", "--seed", "13",
     "--y", ",".join(["1", "-1", "-1", "1"] * 4)],
    ["llr", "-U", "6", "-N", "16", "--ns", "8", "--list-size", "4", "--snr-db", "10",
     "--seed", "14", "--y", ",".join(["-1", "1", "1"] * 10 + ["1", "-1"]), "--format", "json"],
    ["complexity", "--detector", "mld", "-U", "3", "-N", "32", "-K", "4096", "--td", "4096"],
    ["complexity", "--detector", "osd", "-U", "3", "-N", "32", "-K", "4096", "--td", "4096",
     "--ns", "8", "--list-size", "4"],
    # A usage error: exit code and message.
    ["sep", *K16, "--ns", "3", "--list-size", "2"],
]

THREADS = (None, "1", "4")


def run(src: Path, argv: list, threads: str | None, work: Path) -> tuple:
    """(exit code, stdout, stderr, bytes written to --out or None) of one
    argv run from the package under ``src``."""
    env = {k: v for k, v in os.environ.items() if k != "OBDK_THREADS"}
    env.update(OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    if threads is not None:
        env["OBDK_THREADS"] = threads
    out = work / "out"
    out.unlink(missing_ok=True)
    proc = subprocess.run([sys.executable, "-m", "obdk.cli",
                           *(str(out) if a == OUT else a for a in argv)],
                          env=env, cwd=work, capture_output=True, check=False)
    return proc.returncode, proc.stdout, proc.stderr, out.read_bytes() if out.exists() else None


def main(argv: list) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        base, work = Path(tmp, "base"), Path(tmp, "work")
        base.mkdir()
        work.mkdir()
        archive = subprocess.run(["git", "-C", str(REPO), "archive", argv[0], "src"],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(base)], input=archive, check=True)
        differ = set()
        for i, args in enumerate(ARGVS):
            for threads in THREADS:
                old = run(base / "src", args, threads, work)
                new = run(REPO / "src", args, threads, work)
                parts = [name for name, a, b in zip(("exit", "stdout", "stderr", "out"), old, new)
                         if a != b]
                if parts:
                    differ.add(i)
                    print(f"DIFFERS ({', '.join(parts)}; OBDK_THREADS={threads}):",
                          " ".join(args))
        print(f"{len(differ)} of {len(ARGVS)} argvs differ from {argv[0]} "
              "(OBDK_THREADS unset, 1 and 4)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
