"""Smoke tests for the spark-submit job entrypoints."""
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent


def _run(args):
    """Run a job where no Spark session can start: its launcher does not exist."""
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=120,
        env={**os.environ, "SPARK_HOME": "/nonexistent"},
    )


class TestTable2Job:
    """Tables II and VI need no Spark session — run them for real."""

    def test_prints_workload(self):
        r = _run(["jobs/table.py", "2"])
        assert r.returncode == 0
        assert "Q2.2" in r.stdout and "side by side" in r.stdout

    def test_table6_prints_extension_queries(self):
        r = _run(["jobs/table.py", "6"])
        assert r.returncode == 0
        assert "EQ1" in r.stdout and "Q2.2" not in r.stdout


class TestJobModules:
    """Every job script must at least parse and expose a main()."""

    @pytest.mark.parametrize(
        "path", sorted(str(p.relative_to(ROOT)) for p in (ROOT / "jobs").glob("*.py"))
    )
    def test_compiles(self, path):
        import py_compile

        py_compile.compile(str(ROOT / path), doraise=True)

    def test_help_does_not_launch_spark(self):
        r = _run(["jobs/table.py", "3", "--help"])
        assert r.returncode == 0
        assert "--sf" in r.stdout and "--cost-scale" in r.stdout

    @pytest.mark.parametrize("table", ["0", "8"])
    def test_unknown_table_exits_nonzero(self, table):
        r = _run(["jobs/table.py", table])
        assert r.returncode != 0
        assert "invalid choice" in r.stderr
