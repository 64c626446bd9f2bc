"""The four subcommands on their shipped configs give the committed outputs.

The subcommands run on their configs under ``configs/`` in one child process
(this file run with ``--child OUT``), each in process as a fresh command line
would run it, with one set of compiled kernels pinned by ``PINNED_KERNELS``:
OpenBLAS's Haswell kernels, numpy's SIMD loops without their AVX-512 targets,
and one BLAS thread.  Every x86-64 CI runner has these instructions.  Each
exit code, stdout, stderr and CSV is compared with the files under
``tests/data/shipped/<subcommand>/``, where stdout has the output directory
written as ``<out>``.  Text must match exactly; numbers within ``REL_TOL``.

The pin is what lets ``REL_TOL`` be 0.  Unpinned, both libraries choose their
kernels from the CPU: OpenBLAS's SkylakeX and Haswell kernels give different
CSVs, and so do numpy's AVX-512 and AVX2 loops (``converge``'s errors by up to
2e-8 relative), so the committed bits would be one CPU's.  Pinned, the outputs
do not depend on the kernels the test process itself runs with, nor on the
BLAS thread count (1 and 2 gave the same bytes).  A change that moves an
output on purpose rewrites these files, through the same child, in its own
diff:

    PYTHONPATH=src python tests/test_shipped_outputs.py
"""

import contextlib
import io
import logging
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import splitstep
from splitstep.cli import main

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data" / "shipped"
SHIPPED = {
    "run": ("run_manufactured.ini", "run.csv"),
    "converge": ("converge_weighted.ini", "converge.csv"),
    "stability": ("stability_three_level.ini", "stability.csv"),
    "compare": ("compare_schemes.ini", "compare.csv"),
}
PINNED_KERNELS = {
    "OPENBLAS_CORETYPE": "Haswell",
    "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
    "OPENBLAS_NUM_THREADS": "1",
}
REL_TOL = 0.0
NUMBER = re.compile(r"(-?\d+(?:\.\d*)?(?:e[+-]?\d+)?)")


def output_names(command: str) -> tuple[str, ...]:
    return ("exit_code.txt", "stdout.txt", "stderr.txt", SHIPPED[command][1])


def write_outputs(out: Path) -> None:
    """Run every subcommand in this process; write its four files to ``out/<subcommand>/``."""
    for command, (config, csv_name) in SHIPPED.items():
        work = out / command
        work.mkdir(parents=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        logging.root.handlers.clear()  # main's logging setup binds this command's stderr
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([command, "--config", str(ROOT / "configs" / config), "--out", str(work)])
        csv_path = work / csv_name
        outputs = {
            "exit_code.txt": f"{code}\n",
            "stdout.txt": stdout.getvalue().replace(str(work), "<out>"),
            "stderr.txt": stderr.getvalue(),
            csv_name: csv_path.read_text(encoding="utf-8") if csv_path.exists() else "",
        }
        for name, text in outputs.items():
            (work / name).write_text(text, encoding="utf-8")


def shipped_outputs(out: Path) -> Path:
    """``write_outputs`` in one child process with ``PINNED_KERNELS``; returns ``out``."""
    env = {k: v for k, v in os.environ.items() if k != "NPY_ENABLE_CPU_FEATURES"}
    package_root = str(Path(splitstep.__file__).resolve().parents[1])
    env.update(PINNED_KERNELS, PYTHONPATH=os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")])))
    child = subprocess.run(
        [sys.executable, __file__, "--child", str(out)], env=env, capture_output=True, text=True, timeout=600
    )
    assert child.returncode == 0, child.stderr
    return out


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return shipped_outputs(tmp_path_factory.mktemp("shipped"))


def assert_same_cells(got: str, want: str, name: str):
    """Text between numbers equal; numbers equal within ``REL_TOL``."""
    got_cells, want_cells = NUMBER.split(got), NUMBER.split(want)
    assert len(got_cells) == len(want_cells), f"{name}: {got!r} != {want!r}"
    for i, (g, w) in enumerate(zip(got_cells, want_cells)):
        if i % 2 == 0:
            assert g == w, f"{name}: text {g!r} != {w!r}"
        else:
            assert abs(float(g) - float(w)) <= REL_TOL * max(abs(float(g)), abs(float(w))), f"{name}: {g} != {w}"


@pytest.mark.parametrize("command", sorted(SHIPPED))
def test_shipped_outputs_match(outputs, command):
    for file_name in output_names(command):
        got = (outputs / command / file_name).read_text(encoding="utf-8")
        want = (DATA / command / file_name).read_text(encoding="utf-8")
        name = f"{command}/{file_name}"
        got_lines, want_lines = got.splitlines(), want.splitlines()
        assert len(got_lines) == len(want_lines), f"{name}: {len(got_lines)} lines != {len(want_lines)}"
        for line, (g, w) in enumerate(zip(got_lines, want_lines), start=1):
            assert_same_cells(g, w, f"{name}:{line}")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        write_outputs(Path(sys.argv[2]))
    else:
        with tempfile.TemporaryDirectory() as tmp:
            shipped_outputs(Path(tmp))
            for command in SHIPPED:
                (DATA / command).mkdir(parents=True, exist_ok=True)
                for file_name in output_names(command):
                    text = (Path(tmp) / command / file_name).read_text(encoding="utf-8")
                    (DATA / command / file_name).write_text(text, encoding="utf-8")
    sys.exit(0)
