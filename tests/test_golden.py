"""Golden documents: the CLI's stdout and exit code, byte for byte.

Each line of ``tests/golden/COMMANDS`` is a name and a ``catafind``
argument list; ``tests/golden/<name>.out`` holds that command's stdout
followed by a line ``exit: <code>``.  Every command runs in a fresh
interpreter, because a document's bytes may depend on what the process
computed before it.

A change that alters printed bytes on purpose regenerates the files from
the repository root with a POSIX shell, and names each changed file::

    cd tests/golden && set -f
    while read -r name args; do
        { PYTHONPATH=../../src python -m catafind.cli $args; echo "exit: $?"; } > "$name.out"
    done < COMMANDS
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
COMMANDS = [line.split(maxsplit=1)
            for line in (GOLDEN / "COMMANDS").read_text().splitlines()]


@pytest.mark.parametrize("name,args", COMMANDS, ids=[c[0] for c in COMMANDS])
def test_golden_document(name, args, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "catafind.cli", *args.split()],
                          env=env, cwd=tmp_path, capture_output=True, timeout=120)
    got = proc.stdout + b"exit: %d\n" % proc.returncode
    assert got == (GOLDEN / f"{name}.out").read_bytes(), proc.stderr.decode()


@pytest.mark.parametrize("name", [
    "find-rd-codim2", "check-readme", "scan-rd-positive", "count-minors-readme",
    "boardman-readme"])
def test_out_file_holds_the_golden_document(name, tmp_path):
    # one writer: --out FILE gets the bytes that stdout gets, and stdout
    # none; a JSON document's "command" list also holds the two --out words
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [*dict(COMMANDS)[name].split(), "--out", "doc.out"]
    proc = subprocess.run([sys.executable, "-m", "catafind.cli", *argv],
                          env=env, cwd=tmp_path, capture_output=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, b""), proc.stderr.decode()
    want = (GOLDEN / f"{name}.out").read_bytes().removesuffix(b"exit: 0\n")
    head, sep, tail = want.partition(b'"command": [')
    if sep:
        end = tail.index(b"\n  ]")
        want = head + sep + tail[:end] + b',\n    "--out",\n    "doc.out"' + tail[end:]
    assert (tmp_path / "doc.out").read_bytes() == want


def test_scan_prints_its_golden_document_without_numpy(tmp_path):
    # numpy is no dependency of the package: with its import blocked, a
    # scan (homotopy census and stability labels) prints the same bytes
    name = "scan-rd-positive"
    code = ("import sys; sys.modules['numpy'] = None\n"
            "from catafind.cli import main\n"
            f"sys.exit(main({dict(COMMANDS)[name].split()!r}))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code],
                          env=env, cwd=tmp_path, capture_output=True, timeout=120)
    got = proc.stdout + b"exit: %d\n" % proc.returncode
    assert got == (GOLDEN / f"{name}.out").read_bytes(), proc.stderr.decode()
