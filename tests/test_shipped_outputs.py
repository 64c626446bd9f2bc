"""The four subcommands on their shipped configs give the committed outputs.

Each subcommand runs in process on its config under ``configs/``; its exit
code, stdout, stderr and CSV are compared with the files under
``tests/data/shipped/<subcommand>/``, where stdout has the output directory
written as ``<out>``.  Text must match exactly; numbers within ``REL_TOL``.

``REL_TOL`` is 0: the default thread count and ``OPENBLAS_NUM_THREADS=1``
gave byte-identical outputs on a 2-core Xeon (OpenBLAS 0.3.31, scipy
1.17.1, numpy 2.4.6), so no tolerance is measured to be needed.  Other
OpenBLAS kernels do move cells: under ``OPENBLAS_CORETYPE=Haswell`` the norms
differ by about 1e-14 relative and this test fails.  A change that moves an
output on purpose rewrites these files in its own diff:

    PYTHONPATH=src python tests/test_shipped_outputs.py
"""

import contextlib
import io
import re
import sys
from pathlib import Path

import pytest

from splitstep.cli import main

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data" / "shipped"
SHIPPED = {
    "run": ("run_manufactured.ini", "run.csv"),
    "converge": ("converge_weighted.ini", "converge.csv"),
    "stability": ("stability_three_level.ini", "stability.csv"),
    "compare": ("compare_schemes.ini", "compare.csv"),
}
REL_TOL = 0.0
NUMBER = re.compile(r"(-?\d+(?:\.\d*)?(?:e[+-]?\d+)?)")


def shipped_outputs(command: str, out: Path) -> dict[str, str]:
    """Exit code, stdout, stderr and CSV of one subcommand, run in process."""
    config, csv_name = SHIPPED[command]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([command, "--config", str(ROOT / "configs" / config), "--out", str(out)])
    csv_path = out / csv_name
    return {
        "exit_code.txt": f"{code}\n",
        "stdout.txt": stdout.getvalue().replace(str(out), "<out>"),
        "stderr.txt": stderr.getvalue(),
        csv_name: csv_path.read_text(encoding="utf-8") if csv_path.exists() else "",
    }


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
def test_shipped_outputs_match(tmp_path, command):
    for name, got in shipped_outputs(command, tmp_path).items():
        want = (DATA / command / name).read_text(encoding="utf-8")
        got_lines, want_lines = got.splitlines(), want.splitlines()
        assert len(got_lines) == len(want_lines), f"{command}/{name}: {len(got_lines)} lines != {len(want_lines)}"
        for line, (g, w) in enumerate(zip(got_lines, want_lines), start=1):
            assert_same_cells(g, w, f"{command}/{name}:{line}")


if __name__ == "__main__":
    import tempfile

    for command in SHIPPED:
        with tempfile.TemporaryDirectory() as tmp:
            (DATA / command).mkdir(parents=True, exist_ok=True)
            for name, text in shipped_outputs(command, Path(tmp)).items():
                (DATA / command / name).write_text(text, encoding="utf-8")
    sys.exit(0)
