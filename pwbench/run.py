"""pwnorm benchmark: one workload, timed end to end or traced per layer.

    python3 pwbench/run.py --workload norm-wide --seed 1 --seconds 20 --trace 0

Runs the workload's batch of CLI commands through ``pwnorm.cli.main``
in this process, one after another (a closed loop with one client),
repeating whole rounds with fresh inputs until about ``--seconds`` of
command CPU time and at least MIN_OPS commands have run.  Afterwards every output is
checked against the benchmark's own reference computations.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``,
the per-layer metrics (amounts per round) with ``--trace 1``.

Exit status: 0 when every output checked out, 1 when some did not (the
result is still printed), 2 when the benchmark could not run at all
(no result is printed), e.g. outside a pwnorm checkout.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads: one core measures the program

import argparse
import contextlib
import csv
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import reference
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_OPS = 100  # so that at least ten samples lie beyond op_ms_p90
SETUP_REPEATS = 7
LOOP_WALL_LIMIT = 110.0  # seconds; no new round starts after this

# CPU seconds the calibration loop takes at reference machine speed.  Every
# timing is reported at that speed: on this shared VM the same command's
# CPU time drifts by up to 2x within minutes, and the loop, timed just
# before and just after each command, drifts with it.
CAL_REF_S = 0.005

SETUP_CODE = """
import json, sys, time
configs = json.loads(sys.stdin.read())
t0 = time.process_time()
sys.path.insert(0, sys.argv[1])
import pwnorm.cli
from pwnorm.config import build_space, parse_config
for text in configs:
    p, expr = parse_config(text)
    build_space(float(p), expr)
print(time.process_time() - t0)
"""

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


class SetupError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_program():
    """Import pwnorm from this checkout's src/ and nowhere else."""
    if not (SRC / "pwnorm" / "cli.py").is_file():
        raise SetupError(f"no pwnorm sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pwnorm.cli

    if Path(pwnorm.cli.__file__).resolve().parent != SRC / "pwnorm":
        raise SetupError(f"pwnorm was imported from {pwnorm.cli.__file__}, not {SRC}")
    return pwnorm.cli


def check_declared_metrics(trace: bool, names: list[str]) -> None:
    """The metrics printed must be the ones BENCHMARK.json declares."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return
    declared = json.loads(path.read_text(encoding="utf-8"))
    want = [m["name"] for m in declared["per_layer" if trace else "end_to_end"]]
    if sorted(want) != sorted(names):
        raise SetupError(
            f"metrics {sorted(set(names) ^ set(want))} differ from BENCHMARK.json"
        )


def measure_setup(configs: list[str]) -> float:
    """Median over fresh interpreters of the CPU time of importing
    pwnorm.cli and parsing and building each config once, at reference
    speed."""
    times = []
    for _ in range(SETUP_REPEATS):
        before = calibrate()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            input=json.dumps(configs),
            capture_output=True,
            text=True,
            cwd=ROOT,
            timeout=60,
        )
        if done.returncode != 0:
            raise SetupError(f"set-up failed: {done.stderr.strip()[-500:]}")
        speed = CAL_REF_S / statistics.fmean((before, calibrate()))
        times.append(float(done.stdout.strip()) * speed)
    return statistics.median(times)


_CAL_POINTS = [((1 + i * 7919 % 50, 1 + i * 104729 % 400), math.sin(i)) for i in range(3000)]


def calibrate() -> float:
    """CPU seconds of a fixed piece of pure-Python and numpy work that
    does not involve pwnorm: how fast this machine is right now."""
    t0 = time.process_time()
    cells: dict[int, list[float]] = {}
    for idx, c in sorted(_CAL_POINTS):
        w = min(1.0, float(idx[1]) ** -0.3)
        cells.setdefault(idx[0], []).append((c * c) * (w * w))
    math.fsum(math.fsum(v) ** 1.5 for v in cells.values())
    a = np.arange(40000) * 7919 % 4096
    np.bincount(a, weights=np.sqrt(a + 1.0), minlength=4096).sum()
    return time.process_time() - t0


def p90(values: list[float]) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def run_op(cli, workdir: Path, case, sink, errors: io.StringIO):
    """Write the case's files, run its command once, and return
    (seconds, exit status, CSV text or None)."""
    for name, text in case.files.items():
        (workdir / name).write_text(text, encoding="utf-8")
    argv = [str(workdir / a) if a in case.files else a for a in case.argv]
    out = workdir / "out.csv"
    out.unlink(missing_ok=True)
    argv += ["--out", str(out)]
    errors.seek(0)
    errors.truncate()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(errors):
        t0 = time.process_time()
        try:
            status = cli.main(argv)
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            status = f"{type(exc).__name__}: {exc}"
        seconds = time.process_time() - t0
    csv_text = out.read_text(encoding="utf-8") if status == 0 and out.is_file() else None
    return seconds, status, csv_text


def run_rounds(cli, args, slots, tracer):
    """Run whole rounds of the batch.  Returns the CPU seconds of each
    command, the calibration times around them (one more than commands),
    (round, slot, CSV text) per command, the failures and the rounds run."""
    times: list[float] = []
    cals: list[float] = [calibrate()]
    results: list[tuple[int, int, str | None]] = []
    failures: list[str] = []
    rounds = 0
    min_rounds = math.ceil(MIN_OPS / len(slots))
    start = time.perf_counter()
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        with open(os.devnull, "w", encoding="utf-8") as sink:
            errors = io.StringIO()
            # stop when the next round would end further past --seconds than
            # stopping now falls short of it
            while rounds < min_rounds or sum(times) * (1 + 0.5 / rounds) < args.seconds:
                if rounds and time.perf_counter() - start > LOOP_WALL_LIMIT:
                    break
                for k, slot in enumerate(slots):
                    case = slot.factory(workloads.op_rng(args.seed, rounds, k))
                    if tracer:
                        tracer.op = len(times)
                    seconds, status, csv_text = run_op(cli, workdir, case, sink, errors)
                    del case  # keep the inputs out of memory while commands run
                    times.append(seconds)
                    cals.append(calibrate())
                    results.append((rounds, k, csv_text))
                    if status != 0:
                        message = errors.getvalue().strip()
                        failures.append(f"{slot.label}: status {status} {message}")
                rounds += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return times, cals, results, failures, rounds


def check_outputs(args, slots, results) -> list[str]:
    """Make each command's inputs again and check its CSV row."""
    problems: list[str] = []
    for r, k, csv_text in results:
        if csv_text is None:
            continue
        case = slots[k].factory(workloads.op_rng(args.seed, r, k))
        try:
            found = case.check(next(csv.DictReader(io.StringIO(csv_text))))
        except (KeyError, ValueError, StopIteration) as exc:
            found = [f"unreadable output ({type(exc).__name__}: {exc}): {csv_text!r}"]
        problems.extend(f"round {r} {slots[k].label}: {p}" for p in found)
    return problems


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    trace = bool(args.trace)
    slots = workloads.WORKLOADS[args.workload]

    try:
        check_declared_metrics(trace, list(tracing.metric_units() if trace else END_TO_END_UNITS))
        reference.self_test()
        cli = load_program()
        first = [s.factory(workloads.op_rng(args.seed, 0, k)) for k, s in enumerate(slots)]
        configs = sorted({text for case in first for name, text in case.files.items()
                          if name.endswith(".cfg")})
        del first
        setup_s = measure_setup(configs)
    except (SetupError, ValueError, ImportError, OSError, subprocess.SubprocessError) as exc:
        print(f"pwbench: cannot run: {exc}", file=sys.stderr)
        return 2

    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracer.install()
    start = time.perf_counter()
    try:
        times, cals, results, failures, rounds = run_rounds(cli, args, slots, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    loop_s = time.perf_counter() - start
    problems = check_outputs(args, slots, results)
    check_s = time.perf_counter() - start - loop_s

    attempted, failed = len(times), len(failures)
    ref_times = [t * CAL_REF_S / statistics.fmean(cals[i : i + 2]) for i, t in enumerate(times)]
    ops_per_s = (attempted - failed) / sum(ref_times)
    if trace:
        metrics = tracer.metrics(rounds)
    else:
        values = {
            "setup_s": setup_s,
            "ops_per_s": ops_per_s,
            "op_ms_p50": statistics.median(ref_times) * 1e3,
            "op_ms_p90": p90(ref_times) * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: (v, END_TO_END_UNITS[name]) for name, v in values.items()}
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }

    for line in (failures + problems)[:20]:
        print(f"pwbench: {line}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  rounds {rounds} x {len(slots)} ops"
          f"  attempted {attempted}  failed {failed}  correct {not problems}")
    print(f"machine speed {CAL_REF_S / statistics.median(cals):.3f} x reference;"
          f" commands {sum(times):.1f} CPU s, loop {loop_s:.1f} s, checks {check_s:.1f} s;"
          f" ops_per_s {ops_per_s:.4f} at reference speed, traced {trace}")
    for name, (v, u) in metrics.items():
        print(f"  {name:<48} {v:>14.6g} {u}")
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "rounds": rounds, "ops_per_round": len(slots)}
    tag = f"{args.workload}-seed{args.seed}"
    (OUT / f"result-{tag}-trace{args.trace}.json").write_text(
        json.dumps({**meta, **result, "op_seconds": times, "cal_seconds": cals}),
        encoding="utf-8",
    )
    if tracer:
        tracer.write(OUT / f"trace-{tag}.json", meta)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
