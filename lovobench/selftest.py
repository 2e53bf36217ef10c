"""Self-test of the benchmark at tiny scale (a few minutes on 4 cores).

    python3 lovobench/selftest.py

For every workload it runs one round of queries untraced and traced and
asserts that every metric named in ``BENCHMARK.json`` is emitted with
its unit. It then shows the checks are honest: a deliberately corrupted
answer must be caught and counted as failed, and a directory holding
only ``BENCHMARK.json`` and the benchmark must make it exit non-zero
without printing a result.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TINY = ["--sf", "0.05", "--seconds", "0", "--setup-reps", "1"]


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    p = subprocess.run([sys.executable, "lovobench/run.py", *args], cwd=cwd,
                       capture_output=True, text=True, timeout=600)
    return p.returncode, p.stdout.strip().splitlines()


def result(lines: list[str]) -> dict:
    return json.loads(lines[-1])


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from harness import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            errors.append(what)

    for name in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            rc, lines = bench("--workload", name, "--seed", "0", "--trace", str(trace), *TINY)
            tag = f"{name} trace={trace}"
            expect(rc == 0 and bool(lines), f"{tag}: exits 0")
            if rc or not lines:
                continue
            res = result(lines)
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{tag}: every answer passes ({res['failed']}/{res['attempted']} failed)")
            for m in spec[section]:
                got = res["metrics"].get(m["name"])
                expect(got is not None and got["unit"] == m["unit"]
                       and math.isfinite(got["value"]),
                       f"{tag}: emits {m['name']} [{m['unit']}]")
                if got is not None and section == "end_to_end":
                    expect(got["value"] != 0, f"{tag}: {m['name']} is not 0")

    rc, lines = bench("--workload", "bf-scan", "--seed", "0", "--inject-fault", *TINY)
    res = result(lines) if lines else {}
    expect(rc == 0 and res.get("correct") is False and res.get("failed", 0) >= 1,
           f"corrupted answer is caught ({res.get('failed')}/{res.get('attempted')} failed)")
    expect(any(line.startswith("error_rate ") and not line.startswith("error_rate 0.0000")
               for line in lines), "corrupted answer shows in error_rate")

    bare = ROOT / ".lovobench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    rc, lines = bench("--workload", "bf-scan", "--seed", "0", "--seconds", "1", "--trace", "0",
                      cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    expect(rc != 0 and not any(line.startswith("{") for line in lines),
           "without the program's sources it exits non-zero and prints no result")

    print(f"{len(errors)} failed" if errors else "all passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
