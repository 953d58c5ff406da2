"""Self-test of the benchmark at smoke size (one-second windows).

Run from the repository root::

    python3 perfbench/selftest.py

It checks that

* every workload prints every metric of ``BENCHMARK.json`` with its unit,
  in both trace modes, and that metric names use only ``[A-Za-z0-9_.-]``;
* every answer of a smoke run is correct;
* a deliberately corrupted answer and a deliberately failed request (a
  404) are each counted as failed, mark the run incorrect and make it exit
  non-zero;
* the same seed gives an identical input fingerprint and another seed a
  different one;
* every per-layer metric has a predicted link in ``perfbench/links.json``;
* a directory holding only ``BENCHMARK.json`` and ``perfbench/`` makes the
  benchmark exit non-zero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(arguments: list, cwd: Path = ROOT) -> tuple[int, list]:
    completed = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *arguments],
        cwd=str(cwd),
        capture_output=True,
        text=True,
        timeout=180,
    )
    return completed.returncode, completed.stdout.strip().splitlines()


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    links = json.loads((HERE / "links.json").read_text())["links"]
    workloads = [workload["name"] for workload in benchmark["workloads"]]
    expected = {
        0: {m["name"]: m["unit"] for m in benchmark["end_to_end"]},
        1: {m["name"]: m["unit"] for m in benchmark["per_layer"]},
    }
    end_to_end = set(expected[0]) | {"failed"}
    failures: list = []

    def check(condition: bool, message: str) -> None:
        print(("ok   " if condition else "FAIL ") + message)
        if not condition:
            failures.append(message)

    for names in expected.values():
        for name in names:
            check(bool(NAME.match(name)), f"metric name {name!r} is well formed")
    for name in expected[1]:
        link = links.get(name)
        check(link is not None, f"{name} has a predicted link")
        for metric, workload in (link or {}).get("moves", []):
            check(
                metric in end_to_end and workload in workloads,
                f"{name} links to a known metric and workload ({metric}, {workload})",
            )

    for workload in workloads:
        for trace in (0, 1):
            code, lines = _run(
                ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
            )
            result = json.loads(lines[-1]) if lines else {}
            check(code == 0, f"{workload} trace={trace} exits 0")
            check(set(result) == RESULT_KEYS, f"{workload} trace={trace} result keys")
            check(
                result.get("correct") is True and result.get("failed") == 0,
                f"{workload} trace={trace} answers are all correct",
            )
            metrics = result.get("metrics", {})
            check(
                {name: m.get("unit") for name, m in metrics.items()} == expected[trace],
                f"{workload} trace={trace} prints every metric with its unit",
            )

        def fingerprint(seed: str) -> str:
            arguments = ["--workload", workload, "--seed", seed, "--seconds", "1", "--fingerprint"]
            return _run(arguments)[1][-1]

        same = {fingerprint("7") for _ in range(2)}
        other = fingerprint("8")
        check(len(same) == 1, f"{workload}: one seed, one input fingerprint")
        check(other not in same, f"{workload}: another seed, another fingerprint")

    for fault, what in (("answer", "a corrupted answer"), ("status", "a non-2xx response")):
        code, lines = _run(
            ["--workload", workloads[0], "--seed", "1", "--seconds", "1", "--inject-fault", fault]
        )
        result = json.loads(lines[-1]) if lines else {}
        check(code != 0, f"{what} makes the run exit non-zero")
        check(
            result.get("correct") is False and result.get("failed") == 1,
            f"{what} is counted as failed, once",
        )

    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = _run(
            ["--workload", workloads[0], "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass  # a benchmark run still uses it
    check(code != 0 and not lines, "without the program's sources the run fails and prints nothing")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
