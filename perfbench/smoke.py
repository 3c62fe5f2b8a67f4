"""Smoke run of the benchmark at tiny sizes, so that it cannot rot.

Usage, from the root of a source checkout::

    python3 perfbench/smoke.py

For every workload it runs the plain and the traced measurement on tiny
inputs and requires every op to pass its checker.  It also requires each
checker to reject corrupted outputs, the output bytes to be the same in a
process with another hash seed, and ``run.py`` to fail without printing a
result where the freeloop sources are missing.  Exit code 0 means all passed.
"""

from __future__ import annotations

import copy
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads

TINY = {"pbp_cycle": 16, "retract_random": 12, "rho_roundtrip": 12}
SECONDS = 0.2


def tiny_workloads() -> dict:
    out = {}
    for name, w in workloads.WORKLOADS.items():
        tiny = type(w)()
        tiny.size = TINY[name]
        if name == "rho_roundtrip":
            tiny.objects = 16
        out[name] = tiny
    return out


def digests(workdir: Path) -> dict[str, list[str]]:
    """Output sha256 of each tiny case, one op each."""
    out = {}
    for name, w in tiny_workloads().items():
        *_, cases = run.setup(w, 1, w.size, workdir / name)
        out[name] = run.case_digests(cases)
    return out


def corruptions(name: str, case, result):
    """(label, check result) for outputs broken in ways the checker must see."""
    if name == "rho_roundtrip":
        image, back = result
        flipped = copy.copy(image)
        flipped.letters = (type(image.letters[0])(image.letters[0].edge, -image.letters[0].sign),) + tuple(image.letters[1:])
        shortened = copy.copy(back)
        shortened.letters = back.letters[:-1]
        yield "rho image letter flipped", case.check((flipped, back))
        yield "include_f letter dropped", case.check((image, shortened))
        return
    code, out, err = result
    payload = json.loads(out)
    if name == "pbp_cycle":
        loop = payload["certificate"]["loop_in_space"]["letters"]
        broken = copy.deepcopy(payload)
        broken["certificate"]["loop_in_space"]["letters"] = loop[1:]
        yield "loop letter dropped", case.check((code, json.dumps(broken), err))
        broken = copy.deepcopy(payload)
        edge = loop[0]["edge"]
        broken["certificate"]["loop_in_space"]["letters"] = (
            [{"edge": edge, "sign": loop[0]["sign"]}, {"edge": edge, "sign": -loop[0]["sign"]}] + loop
        )
        yield "loop not reduced", case.check((code, json.dumps(broken), err))
    else:
        broken = copy.deepcopy(payload)
        broken["k"] += 1
        yield "k off by one", case.check((code, json.dumps(broken), err))
        broken = copy.deepcopy(payload)
        broken["w"]["edges"].pop()
        yield "W edge dropped", case.check((code, json.dumps(broken), err))
    yield "nonzero exit", case.check((2, out, "DomainError"))


def main() -> int:
    freeloop = run.load_freeloop()
    if freeloop is None:
        print("error: freeloop sources not found", file=sys.stderr)
        return 2
    if sys.argv[1:] == ["--digests"]:
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            print(json.dumps(digests(Path(tmp))))
        return 0
    failures = []
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        tmp = Path(tmp)
        for name, w in tiny_workloads().items():
            for kind, measured in (
                ("end_to_end", run.measure(w, 1, SECONDS, tmp / name)),
                ("per_layer", run.measure_traced(w, 1, SECONDS, tmp / name, freeloop)),
            ):
                metrics, outcomes, _ = measured
                missing = {m["name"] for m in run.spec()[kind]} - set(metrics)
                if outcomes.failed or missing:
                    failures.append(f"{name} {kind}: {outcomes.problems[:3]}, missing {sorted(missing)}")
            *_, cases = run.setup(w, 2, w.size, tmp / name)
            case = cases[0]
            for label, problems in corruptions(name, case, case.run()):
                if not problems:
                    failures.append(f"{name}: checker accepted a corrupted output ({label})")

        here = digests(tmp / "here")
        env = {**os.environ, "PYTHONHASHSEED": str(random.randrange(1, 2**31))}
        proc = subprocess.run(
            [sys.executable, __file__, "--digests"], capture_output=True, text=True, env=env, check=False
        )
        if proc.returncode != 0 or json.loads(proc.stdout.splitlines()[-1]) != here:
            failures.append("output bytes differ in a process with another hash seed")

        bare = tmp / "bare"
        shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "pbp_cycle", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180, check=False,
        )
        if proc.returncode == 0 or proc.stdout.strip():
            failures.append("run.py did not fail where the freeloop sources are missing")

    for failure in failures:
        print(f"FAILED: {failure}")
    print("smoke: ok" if not failures else f"smoke: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
