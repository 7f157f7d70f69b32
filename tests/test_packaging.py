"""The package metadata in pyproject.toml: modules shipped and the CLI entry point."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_egg_info_lists_modules_and_entry_point(tmp_path):
    subprocess.run(
        [sys.executable, "-c", "from setuptools import setup; setup()",
         "egg_info", "--egg-base", str(tmp_path)],
        cwd=ROOT, check=True, capture_output=True,
    )
    info = tmp_path / "polegeom.egg-info"
    sources = set((info / "SOURCES.txt").read_text().split())
    modules = {f"src/polegeom/{p.name}" for p in (ROOT / "src" / "polegeom").glob("*.py")}
    assert modules <= sources
    assert not [s for s in sources if s.endswith((".pyx", ".c"))]
    entry_points = (info / "entry_points.txt").read_text()
    assert "[console_scripts]\npolegeom = polegeom.cli:main\n" in entry_points
