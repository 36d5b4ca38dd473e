"""Every demo prints exactly its golden output.

Each script in demos/ runs against this checkout's package, and its
stdout must equal tests/golden/demos/<demo>.txt byte for byte.  The
demos are seeded or exhaustive, so their output never varies.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import package_env

ROOT = Path(__file__).parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).parent / "golden" / "demos"


def test_every_demo_has_a_golden():
    assert [d.stem for d in DEMOS] == sorted(g.stem for g in GOLDEN.glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_prints_its_golden(demo, tmp_path):
    out = subprocess.run([sys.executable, str(demo)], capture_output=True, env=package_env(),
                         cwd=tmp_path, timeout=60)
    assert out.returncode == 0, out.stderr.decode()
    assert out.stdout == (GOLDEN / f"{demo.stem}.txt").read_bytes()
