#!/usr/bin/env python3
"""Smoke test of the benchmark itself; about half a minute.

Usage (from the root of a checkout): python3 perfbench/selftest.py

- Every workload, untraced and traced, emits exactly the metrics that
  BENCHMARK.json names, each with its unit, and passes its checks.
- Self times are non-negative and sum to no more than the traced wall time.
- The checks reject a perturbed partial sum, a dropped region and a
  perturbed generator entry.
- A wrapped name that is missing (numpy gone from osp12) reads 0.
- Without the program's sources the benchmark exits non-zero and prints
  no result.
Exits 1 if any check fails.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")

failures = []


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}".rstrip(), flush=True)
    if not ok:
        failures.append(name)


def run_benchmark(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


def check_emitted(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run_benchmark(workload, trace)
            label = f"{workload} --trace {trace}"
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                report(label, False, f"exit {proc.returncode}, no JSON result: {proc.stderr[-300:]}")
                continue
            problems = []
            if proc.returncode != 0 or set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"exit {proc.returncode}, keys {sorted(result)}")
            if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
                problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
            metrics = result.get("metrics", {})
            expected = {m["name"]: m["unit"] for m in wanted}
            if set(metrics) != set(expected):
                problems.append(f"metric names differ: {sorted(set(metrics) ^ set(expected))}")
            for name, m in metrics.items():
                if m.get("unit") != expected.get(name):
                    problems.append(f"{name}: unit {m.get('unit')!r}, want {expected.get(name)!r}")
                value = m.get("value")
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{name}: value {value!r}")
                elif trace == 0 and value <= 0:
                    problems.append(f"{name}: end-to-end value {value!r} is not positive")
            report(label, not problems, "; ".join(problems) or f"{len(metrics)} metrics")


def check_in_process() -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import workloads
    from superflip import osp12
    from superflip.grassmann import GrassmannNumber
    from superflip.osp12 import SuperMatrix
    from tracing import Tracer

    workdir = tempfile.mkdtemp(prefix="selftest-", dir=WORK)
    try:
        # trace invariants on a few traced calls
        wl = workloads.IdentityCli(workdir)
        tracer = Tracer()
        for index in range(3):
            inp = wl.make_input(1, index)
            tracer.traced_call(wl.call, inp)
            wl.done(inp)
        problems = tracer.check_invariants()
        ids = {s[2] for s in tracer.spans}
        report("trace self times", not problems, "; ".join(problems)
               or f"{len(tracer.spans)} spans, {len(tracer.ops)} operation aggregates")
        report("trace call ids", ids == {1, 2, 3}, f"call ids {sorted(ids)}")

        # the checks reject wrong results, on the cli path ...
        inp = wl.make_input(1, 5)
        out = wl.call(inp)
        _, problems = wl.check(inp, out)
        report("identity-n2-deep accepts a correct result", not problems, "; ".join(problems))
        with open(inp.out) as fh:
            good = json.load(fh)
        with open(inp.csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        bad = json.loads(json.dumps(good))
        bad["partial_sum"]["terms"][0]["c"] += 1e-6
        dev = GrassmannNumber.from_obj(bad["partial_sum"]) - 0.5
        bad.update(deviation_body=abs(dev.body), deviation_norm=dev.norm())
        with open(inp.out, "w") as fh:
            json.dump(bad, fh)
        report("identity-n2-deep rejects a perturbed partial sum", bool(wl.check(inp, out)[1]))
        bad = dict(good, region_count=good["region_count"] - 1)
        with open(inp.out, "w") as fh:
            json.dump(bad, fh)
        with open(inp.csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows[:-1])
        report("identity-n2-deep rejects a dropped region", bool(wl.check(inp, out)[1]))
        wl.done(inp)

        # ... on the direct identity path ...
        direct = workloads.IdentityDirect(workdir)
        state = direct.make_input(1, 1)
        rep = direct.call(state)
        report("identity-n6 accepts a correct result", not direct.check(state, rep)[1])
        dev = rep.partial_sum + 1e-2 - 0.5
        nudged = dataclasses.replace(rep, partial_sum=rep.partial_sum + 1e-2,
                                     deviation_body=abs(dev.body), deviation_norm=dev.norm())
        report("identity-n6 rejects a perturbed partial sum", bool(direct.check(state, nudged)[1]))
        dropped = dataclasses.replace(rep, region_count=rep.region_count - 1, rows=rep.rows[:-1])
        report("identity-n6 rejects a dropped region", bool(direct.check(state, dropped)[1]))

        # ... and for generators
        gen = workloads.Generators(workdir)
        state = gen.make_input(1, 2)
        pair = gen.call(state)
        report("generators-n6 accepts a correct result", not gen.check(state, pair)[1])
        rows = [list(r) for r in pair.g_a.rows]
        rows[0][1] = rows[0][1] + 1e-6
        perturbed = dataclasses.replace(pair, g_a=SuperMatrix(rows))
        problems = gen.check(state, perturbed)[1]
        report("generators-n6 rejects a perturbed generator entry", bool(problems), "; ".join(problems))

        # a wrapped name that is gone reads 0 instead of raising
        saved = osp12.np
        del osp12.np
        try:
            tracer = Tracer()
            inp = wl.make_input(1, 9)
            tracer.traced_call(wl.call, inp)
            wl.done(inp)
            value = tracer.metrics(1.0)["osp12.lstsq.calls"][0]
            report("missing numpy in osp12 reads 0", value == 0, f"osp12.lstsq.calls={value}")
        finally:
            osp12.np = saved
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_without_program() -> None:
    bare = tempfile.mkdtemp(prefix="bare-", dir=WORK)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__", "_work"))
        proc = run_benchmark("identity-n6", 0, cwd=bare)
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        report("without src/ the benchmark exits non-zero, no result",
               proc.returncode != 0 and not last.startswith("{"),
               f"exit {proc.returncode}: {proc.stderr.strip()[-120:]}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    os.makedirs(WORK, exist_ok=True)
    try:
        check_emitted(spec)
        check_in_process()
        check_without_program()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(f"{len(failures)} check(s) failed" if failures else "all benchmark self-checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
