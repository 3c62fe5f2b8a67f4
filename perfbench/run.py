"""Pipeline benchmark for freeloop.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload pbp_cycle --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

One client calls freeloop in-process in a closed loop: each op starts when
the previous one has returned.  The seed fixes every input; the sizes do not
depend on it.  Outputs are checked after the timed loop by code that shares
nothing with freeloop, and every op's output bytes must hash the same as the
first op's on that input.

Shared virtual machines switch between a fast and a slow CPU speed for
seconds at a time (1.4-1.7x apart on a 2-vCPU KVM guest), which moves the
median of a run by whichever speed held for most of it.  So an untimed
probe, a fixed arithmetic loop, runs just before every op and every set-up,
and each time is scaled by PROBE_REF_NS over the probe's time: the reported
times are those of a CPU on which the probe takes PROBE_REF_NS.  On this
guest op time and probe time rise together (a probe 1.4x slower comes with
an op about 1.44x slower), and the scaled median of a run varied 8% across
windows where the plain one varied 31%.  The plain wall-clock figures are
printed as a note.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` interleaves
plain ops, traced ops and traced ops at half the workload's size, and
reports per-layer self times and counts as per-op means, the tracing
overhead, and each layer's growth per size doubling.  Spans of the traced
ops go to ``perfbench/out/spans-<workload>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when the run completed, whatever the checks found; it is 2, with no result
line, when the freeloop sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
RECORD = HERE / "determinism.json"

SETUP_REPEATS = 5  # set-ups per run; setup_s is their median
MIN_OPS = 11  # so the tail always has ten samples beyond it
TAIL_BEYOND = 10
PROBE_LOOPS = 50_000
PROBE_REF_NS = 3_000_000  # the probe's time on this guest at its fast speed

# Which end-to-end metric each per-layer metric should move, and where;
# the longest matching name prefix applies.
MOVES = {
    "cli.": "op_p50_ms on pbp_cycle and retract_random",
    "jsonio.": "op_p50_ms on retract_random, then pbp_cycle",
    "dot.": "op_p50_ms on retract_random; zero on rho_roundtrip",
    "vankampen.": "op_p50_ms on pbp_cycle only",
    "retract.": "op_p50_ms on rho_roundtrip",
    "words.": "op_p50_ms on rho_roundtrip, then pbp_cycle",
    "graphs.": "op_p50_ms on retract_random and pbp_cycle",
    "graphs.components_": "op_p50_ms on pbp_cycle",
    "graphs.path_hops": "op_p50_ms on rho_roundtrip",
    "graphs.eq_hash_calls": "op_p50_ms on rho_roundtrip",
    "kernels.": "op_p50_ms on rho_roundtrip (reduce), retract_random (union-find, forest)",
    "kernels.reduce_": "op_p50_ms on rho_roundtrip",
    "kernels.forest_": "op_p50_ms on retract_random",
    "kernels.uf_": "op_p50_ms on retract_random",
    "bench.": "none: the benchmark's own share of a traced op",
    "trace.": "none: traced against untraced ops",
}
MOVES_GROWTH = "growth of op_p50_ms with n on pbp_cycle"


def moves(metric: str) -> str:
    if metric.endswith(".growth_2x"):
        return MOVES_GROWTH
    return MOVES[max((p for p in MOVES if metric.startswith(p)), key=len)]


def load_freeloop():
    """Import freeloop from this checkout's ``src``, or None if it is absent."""
    src = ROOT / "src"
    if not (src / "freeloop" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import freeloop

    if src not in Path(freeloop.__file__).resolve().parents:
        return None
    return freeloop


def environment(freeloop) -> dict:
    return {
        "backend": freeloop.KERNEL_BACKEND,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


class Outcomes:
    """Per-case output digests; the first op on each case is checked in full
    after the timed loop, later ops must reproduce its bytes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first: dict[int, tuple] = {}
        self.ops: dict[int, int] = defaultdict(int)
        self.problems: list[str] = []

    def record(self, case, result) -> bytes | None:
        self.attempted += 1
        if isinstance(result, Exception):
            self.failed += 1
            self.problems.append(f"op raised {type(result).__name__}: {result}")
            return None
        data = case.output_bytes(result)
        digest = hashlib.sha256(data).hexdigest()
        key = id(case)
        if key not in self.first:
            self.first[key] = (case, result, digest)
        elif self.first[key][2] != digest:
            self.failed += 1
            self.problems.append("output bytes differ between ops on one input")
            return data
        self.ops[key] += 1
        return data

    def check(self) -> None:
        for key, (case, result, _) in self.first.items():
            try:
                problems = case.check(result)
            except Exception as exc:  # a malformed output can break a checker
                problems = [f"checker raised {type(exc).__name__}: {exc}"]
            if problems:
                self.failed += self.ops[key]
                self.problems.extend(problems)

    def digests(self, cases) -> list[str]:
        return [self.first[id(c)][2] for c in cases if id(c) in self.first]


def timed(case):
    start = time.perf_counter_ns()
    try:
        result = case.run()
    except Exception as exc:
        result = exc
    return time.perf_counter_ns() - start, result


def probe() -> int:
    """Nanoseconds for a fixed arithmetic loop: the host's CPU speed now."""
    start = time.perf_counter_ns()
    x = 0
    for i in range(PROBE_LOOPS):
        x += i * i
    return time.perf_counter_ns() - start


def scale(ns: int, probe_ns: int) -> float:
    """A time in ms, scaled to the reference CPU speed."""
    return ns * PROBE_REF_NS / probe_ns / 1e6


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples beyond it, and its value."""
    ordered = sorted(samples)
    n = len(ordered)
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def setup(workload, seed: int, n: int, workdir: Path):
    """Set up one workload; returns (wall ns, scaled ms, cases)."""
    workdir.mkdir(parents=True, exist_ok=True)
    speed = probe()
    start = time.perf_counter_ns()
    cases = workload.setup(random.Random(f"{workload.name}-{seed}"), n, workdir)
    ns = time.perf_counter_ns() - start
    return ns, scale(ns, speed), cases


def measure(workload, seed: int, seconds: float, workdir: Path) -> tuple[dict, Outcomes, list]:
    setup_ns, setup_ms = [], []
    for _ in range(SETUP_REPEATS):
        ns, ms, cases = setup(workload, seed, workload.size, workdir)
        setup_ns.append(ns)
        setup_ms.append(ms)
    outcomes = Outcomes()
    durations, wall = [], []
    gc.collect()
    deadline = time.perf_counter() + seconds
    while len(durations) < MIN_OPS or time.perf_counter() < deadline:
        case = cases[len(durations) % len(cases)]
        speed = probe()
        ns, result = timed(case)
        durations.append(scale(ns, speed))
        wall.append(ns / 1e6)
        outcomes.record(case, result)
    outcomes.check()
    percentile, tail_ms = tail(durations)
    metrics = {
        "op_p50_ms": statistics.median(durations),
        "op_tail_ms": tail_ms,
        "ops_per_s": 1000.0 * len(durations) / sum(durations),
        "setup_s": statistics.median(setup_ms) / 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    wall_percentile, wall_tail = tail(wall)
    notes = [
        f"op_tail_ms is p{percentile:.1f} of {len(durations)} ops",
        f"wall clock, unscaled: op_p50_ms {statistics.median(wall):.4f},"
        f" p{wall_percentile:.1f} {wall_tail:.4f}, ops_per_s {1000.0 * len(wall) / sum(wall):.4f},"
        f" setup_s {statistics.median(setup_ns) / 1e9:.4f}",
    ]
    return metrics, outcomes, notes + digest_notes(outcomes, cases, workload.name, seed)


def combined_digest(digests: list[str]) -> str:
    return hashlib.sha256("".join(digests).encode()).hexdigest()


def case_digests(cases) -> list[str]:
    """Output sha256 of one op on each case."""
    return [hashlib.sha256(c.output_bytes(c.run())).hexdigest() for c in cases]


def digest_notes(outcomes: Outcomes, cases, workload: str, seed: int) -> list[str]:
    """The run's output digest, and whether it matches the committed record."""
    digest = combined_digest(outcomes.digests(cases))
    recorded = RECORD.is_file() and json.loads(RECORD.read_text())["sha256"].get(workload, {}).get(str(seed))
    verdict = "not recorded" if not recorded else "matches" if recorded == digest else "DIFFERS from"
    return [f"output sha256 {digest} over {len(cases)} input(s); {verdict} {RECORD.name}"]


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def measure_traced(workload, seed: int, seconds: float, workdir: Path, freeloop):
    import spans

    *_, cases = setup(workload, seed, workload.size, workdir / "full")
    *_, half_cases = setup(workload, seed, workload.size // 2, workdir / "half")
    tracers = {"full": spans.Tracer(), "half": spans.Tracer()}
    modes = (("plain", cases), ("full", cases), ("half", half_cases))
    outcomes = Outcomes()
    times: dict[str, list[float]] = defaultdict(list)
    self_ns: dict[str, dict[str, int]] = {m: defaultdict(int) for m in tracers}
    counts = dict.fromkeys(spans.COUNTERS + ("jsonio.bytes_in", "cli.bytes_out"), 0)
    gc.collect()
    deadline = time.perf_counter() + seconds
    i = 0
    while min(len(times[m]) for m, _ in modes) < 3 or time.perf_counter() < deadline:
        mode, pool = modes[i % len(modes)]
        case = pool[(i // len(modes)) % len(pool)]
        i += 1
        if mode == "plain":
            ns, result = timed(case)
        else:
            tracer = tracers[mode]
            tracer.install()
            try:
                tracer.begin_op()
                try:
                    result = case.run()
                except Exception as exc:
                    result = exc
                ns, layers, op_counts = tracer.end_op()
            finally:
                tracer.uninstall()
            for layer, value in layers.items():
                self_ns[mode][layer] += value
        times[mode].append(ns / 1e6)
        data = outcomes.record(case, result)
        if mode == "full":
            for key, value in op_counts.items():
                counts[key] += value
            counts["jsonio.bytes_in"] += case.bytes_in
            counts["cli.bytes_out"] += len(data or b"") if case.via_cli else 0
    outcomes.check()

    ops = len(times["full"])
    metrics: dict[str, float] = {}
    for layer in spans.LAYERS + ("bench",):
        full = self_ns["full"][layer] / ops / 1e6
        half = self_ns["half"][layer] / len(times["half"]) / 1e6
        metrics[f"{layer}.self_ms"] = full
        metrics[f"{layer}.growth_2x"] = full / half if half else 0.0
    for key, value in counts.items():
        metrics[key] = value / ops
    calls = counts["graphs.components_calls"]
    metrics["graphs.components_hit_ratio"] = counts["graphs.components_hits"] / calls if calls else 0.0
    metrics["trace.op_ms"] = statistics.mean(times["full"])
    metrics["trace.overhead_ratio"] = statistics.median(times["full"]) / statistics.median(
        times["plain"]
    )
    OUT.mkdir(exist_ok=True)
    tracers["full"].dump(
        OUT / f"spans-{workload.name}.jsonl",
        {"workload": workload.name, "seed": seed, **environment(freeloop)},
    )
    notes = [f"traced ops: {ops} at n={workload.size}, {len(times['half'])} at n={workload.size // 2}"]
    return metrics, outcomes, notes + digest_notes(outcomes, cases, workload.name, seed)


def run_one(args, freeloop) -> int:
    workload = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"{workload.name}-{os.getpid()}"
    try:
        if args.trace:
            values, outcomes, notes = measure_traced(workload, args.seed, args.seconds, workdir, freeloop)
        else:
            values, outcomes, notes = measure(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    listed = spec()["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in listed}

    env = environment(freeloop)
    print(f"workload {workload.name} seed {args.seed} trace {args.trace} "
          f"backend {env['backend']} python {env['python']} nproc {env['nproc']}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:14.4f} {m['unit']:6s}" + (f" moves {moves(name)}" if args.trace else ""))
    error_rate = outcomes.failed / outcomes.attempted
    print(f"  {'error_rate':32s} {error_rate:14.4f} ratio ({outcomes.failed}/{outcomes.attempted})")
    for note in notes:
        print(f"  {note}")
    for problem in sorted(set(outcomes.problems))[:20]:
        print(f"  FAILED: {problem}")
    print(json.dumps({
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, then one combined result line."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = value
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="freeloop pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    freeloop = load_freeloop()
    if freeloop is None:
        print(f"error: no freeloop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args, freeloop)


if __name__ == "__main__":
    raise SystemExit(main())
