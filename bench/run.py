"""Benchmark for shufflesum: four workloads driven through the CLI.

    python3 bench/run.py --workload chain-ref --seed 1 --seconds 15 --trace 0
    python3 bench/run.py                      # every workload, summary table

Run from the repository root; the program is imported from ./src. One
run pins itself to one CPU, sets up (interpreter start plus
``import shufflesum.cli``, timed in fresh processes), then repeats whole
rounds of its workload until --seconds have passed. Each round has its
own seed derived from --seed.

Every timing is taken at reference pace (see speed.py): the time
measured, divided by the reference loop's time measured around it, times
speed.REF_S. The shared machine this was tuned on slows all code by up
to 2.3x for seconds or minutes at a time, and the pace takes that out.

--trace 0 reports the end-to-end metrics: setup_s (median of the set-up
samples), wall_s and cpu_s (the time spent inside CLI commands: each
command of a round at its median over all rounds, summed) and
peak_rss_mb of this process. --trace 1 runs each round twice, untraced
and then with every layer wrapped in spans, and reports the per-layer
metrics of the median traced pass, less the tracer's own cost as
calibrated before each pass, and the tracing overhead (median traced
pass over median untraced pass). The last line of standard output is
one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Spans of traced runs and every result go to bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import click

import speed
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_SAMPLES = 15
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import shufflesum.cli; "
    "print(time.perf_counter() - t)"
)
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def _cpu_s() -> float:
    """User plus system CPU of this process and of its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Session:
    """Runs CLI commands in-process, times them, and counts operations."""

    def __init__(self, cli_main):
        self.cli_main = cli_main
        self.tracer = None
        self.out_dir = OUT_DIR
        self.attempted = 0
        self.failed = 0
        # (wall, cpu, pace) of each command: raw times and speed.REF_S over
        # the reference loop's time around the command
        self.times: list[tuple[float, float, float]] = []

    def check(self, what: str, predicate) -> bool:
        """One operation: passes if predicate() is true. A report field that
        is missing or malformed fails the check instead of raising."""
        try:
            ok = bool(predicate())
        except (KeyError, IndexError, TypeError, ValueError, AttributeError, ZeroDivisionError):
            ok = False
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)
        return ok

    def command(self, args: list[str], out_file: Path | None = None) -> tuple[int, str, str]:
        """Run `shufflesum <args>` in this process; one operation that
        passes on exit code 0. Returns (exit code, stdout, stderr)."""
        stdout, stderr = io.StringIO(), io.StringIO()
        span = self.tracer.span("cli.command") if self.tracer else contextlib.nullcontext()
        before = speed.probe()
        wall0, cpu0 = time.perf_counter(), _cpu_s()
        with span, contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = self._invoke(args)
        wall, cpu = time.perf_counter() - wall0, _cpu_s() - cpu0
        self.times.append((wall, cpu, 2 * speed.REF_S / (before + speed.probe())))
        out, err = stdout.getvalue(), stderr.getvalue()
        if self.tracer:
            written = len(out.encode()) + len(err.encode())
            if out_file is not None and out_file.exists():
                written += out_file.stat().st_size
            self.tracer.work["cli.bytes_written"] += written
        self.check(f"shufflesum {' '.join(args)} exits 0 (got {code}): {err[-500:]}",
                   lambda: code == 0)
        return code, out, err

    def _invoke(self, args: list[str]) -> int:
        try:
            self.cli_main.main(args, prog_name="shufflesum", standalone_mode=False)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
        except click.ClickException as exc:
            exc.show()
            return exc.exit_code
        except Exception:  # a crash is reported as its own code, never as a pass
            traceback.print_exc()
            return 3
        return 0


def import_program():
    """Import shufflesum.cli from ./src, refusing any other copy."""
    if not (SRC / "shufflesum" / "cli.py").is_file():
        raise SystemExit(f"bench: {SRC / 'shufflesum'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import shufflesum.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "shufflesum").resolve():
        raise SystemExit(f"bench: imported shufflesum from {cli.__file__}, not from {SRC}")
    return cli


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, so that the reference
    loop runs on the core whose speed it stands for."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class SetupProbe:
    """Times a fresh interpreter importing shufflesum.cli: the wall time of
    the whole process, and the import time it reports for itself, both at
    reference pace. The first start, untimed, fills the bytecode cache, as
    any installed copy has it."""

    def __init__(self) -> None:
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p))
        self.walls: list[float] = []
        self.imports: list[float] = []
        self._launch()

    def _launch(self) -> tuple[float, float]:
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=self.env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        return time.perf_counter() - start, float(done.stdout.strip())

    def sample(self) -> None:
        before = speed.probe()
        wall, imported = self._launch()
        pace = 2 * speed.REF_S / (before + speed.probe())
        self.walls.append(wall * pace)
        self.imports.append(imported * pace)


def _paced(times: list[tuple[float, float, float]]) -> float:
    """Wall time of a list of command runs, at reference pace."""
    return sum(wall * pace for wall, _, pace in times)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    pin_to_one_cpu()
    speed.probe()  # its first pass is several times slower than the rest
    cli = import_program()
    OUT_DIR.mkdir(exist_ok=True)
    prepare, round_fn = workloads.WORKLOADS[name]
    probe = SetupProbe()
    ref = prepare()
    session = Session(cli.main)
    tracer = tracing.Tracer() if trace else None
    commands, traced, layers = [], [], []
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        round_seed = workloads.sub_seed(seed, name, rounds)
        session.times = []
        round_fn(session, round_seed, ref)
        commands.append(session.times)
        if tracer:
            tracer.reset()
            tracer.calibrate()
            session.tracer, session.times = tracer, []
            with tracing.installed(tracer):
                round_fn(session, round_seed, ref)
            session.tracer = None
            # (paced wall, paced wall less the calibrated span cost, span cost)
            pace = _paced(session.times) / sum(wall for wall, _, _ in session.times)
            traced.append((_paced(session.times), pace * tracer.totals["cli.command"][1] / 1e9,
                           tracer.span_cost_ns))
            layers.append(tracing.layer_metrics(tracer, pace))
        rounds += 1
        # set-up samples spread evenly over the run, so that a slow spell
        # of the machine weighs on them no more than on the rounds
        share = min(1.0, (time.perf_counter() - start) / seconds)
        while len(probe.walls) < SETUP_SAMPLES * share:
            probe.sample()
    while len(probe.walls) < SETUP_SAMPLES:
        probe.sample()
    walls = [_paced(times) for times in commands]
    print(f"bench: {name} seed={seed}: {rounds} rounds in {time.perf_counter() - start:.1f} s; "
          f"round wall s at reference pace: {' '.join(f'{w:.3f}' for w in walls)}; "
          f"as measured: {' '.join(f'{sum(t[0] for t in ts):.3f}' for ts in commands)}; "
          f"set-up s at reference pace: {' '.join(f'{w:.3f}' for w in probe.walls)}",
          file=sys.stderr)

    if trace:
        middle = [t[0] for t in traced].index(statistics.median_low(t[0] for t in traced))
        paced, corrected, span_cost = traced[middle]
        untraced = statistics.median(walls)
        values = dict(layers[middle])
        values["cli.import_s"] = statistics.median(probe.imports)
        values["trace.overhead_pct"] = 100 * (paced / untraced - 1)
        metrics = {key: {"value": values[key], "unit": unit}
                   for key, unit in tracing.PER_LAYER_UNITS.items()}
        print(f"bench: tracing overhead {values['trace.overhead_pct']:.1f} %; "
              f"{100 * (corrected / untraced - 1):.1f} % after subtracting "
              f"the calibrated {span_cost:.0f} ns per span", file=sys.stderr)
        tracer.write(OUT_DIR / f"trace-{name}.jsonl")
        if tracer.dropped:
            print(f"bench: kept the first {len(tracer.spans)} spans, dropped {tracer.dropped}",
                  file=sys.stderr)
    else:
        # every round runs the same commands: take each one's median over the rounds
        runs = list(zip(*commands))
        values = {
            "setup_s": statistics.median(probe.walls),
            "wall_s": sum(statistics.median(wall * pace for wall, _, pace in r) for r in runs),
            "cpu_s": sum(statistics.median(cpu * pace for _, cpu, pace in r) for r in runs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in E2E_UNITS.items()}
    return {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload, each in a fresh process so peak RSS is its own."""
    results = {}
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if done.returncode == 0 and lines else {
            "correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        result = results[name]
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        for key, metric in result["metrics"].items():
            print(f"  {key:<42} {metric['value']:>14.6g} {metric['unit']}")
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        results = run_all(args.seed, args.seconds, bool(args.trace))
        print(json.dumps(results, sort_keys=True))
        return 0 if all(r["correct"] for r in results.values()) else 1
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    tag = f"{args.workload}-trace{args.trace}"
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
