"""The Spark driver heap that the root ``conftest`` picks before the JVM starts."""
import sys

import pytest

root_conftest = sys.modules["conftest"]


def _gib(mem: str) -> int:
    assert mem.endswith("g")
    return int(mem[:-1])


def _mem_total_gib(path) -> float:
    with open(path) as f:
        kib = next(int(line.split()[1]) for line in f if line.startswith("MemTotal:"))
    return kib / (1 << 20)


@pytest.fixture
def no_override(monkeypatch):
    """No SPARK_DRIVER_MEM and no readable cgroup limit."""
    monkeypatch.delenv("SPARK_DRIVER_MEM", raising=False)
    monkeypatch.delenv("_SPARK_DRIVER_MEM_SRC", raising=False)
    monkeypatch.setattr(root_conftest, "_CGROUP_LIMITS", ("/nonexistent/memory.max",))


def test_fallback_fits_this_host(no_override):
    mem = root_conftest._driver_mem()
    assert _gib(mem) <= _mem_total_gib(root_conftest._MEMINFO)


@pytest.mark.parametrize("total_gib, want", [(3, "2g"), (15, "7g"), (64, "8g")])
def test_fallback_is_half_mem_total_clamped(no_override, monkeypatch, tmp_path, total_gib, want):
    meminfo = tmp_path / "meminfo"
    meminfo.write_text(f"MemTotal:       {total_gib << 20} kB\nMemFree:        1024 kB\n")
    monkeypatch.setattr(root_conftest, "_MEMINFO", str(meminfo))
    assert root_conftest._driver_mem() == want
    assert root_conftest.os.environ["_SPARK_DRIVER_MEM_SRC"] == "meminfo"


def test_unreadable_meminfo_falls_back_to_2g(no_override, monkeypatch):
    monkeypatch.setattr(root_conftest, "_MEMINFO", "/nonexistent/meminfo")
    assert root_conftest._driver_mem() == "2g"
