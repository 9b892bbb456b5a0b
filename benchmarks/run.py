"""phenotag benchmark: one workload, one seed, a fixed measuring time.

    python3 benchmarks/run.py --workload ner_scan --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory and nothing else. The run generates its inputs from the
seed under ``.bench_work/``, then repeats the workload's whole chain until
``--seconds`` have passed, checking every chain run's outputs against the
planted truth (``gate.py``). Human-readable figures go to standard output
first; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``:

- ``--trace 0``: the ``end_to_end`` metrics of ``BENCHMARK.json``, as
  medians over the chain runs. On the CLI workloads each chain run's time
  is scaled to reference processor speed by a kernel run right before and
  after it (``speed.py``). ``setup_s`` is the median time of a fresh
  interpreter importing ``phenotag.cli``, sampled between chain runs at
  least ``SETUP_EVERY_S`` apart and scaled by the scan kernel; the raw
  medians of both times are printed too.
- ``--trace 1``: its ``per_layer`` metrics. Chain runs
  alternate untraced and traced; spans come from the traced ones and are
  written to ``.bench_work/spans/``.

``attempted`` counts the operations (records annotated, mentions judged,
RAFT questions built) over all chain runs; ``failed`` counts those of chain
runs whose outputs failed the gate. A run that fails the gate reports no
metrics and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
# One BLAS thread: the program's matrix products are small, and idle BLAS
# workers spinning on the second processor only add noise to its timings.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import gate  # noqa: E402
import metrics  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

SETUP_RUNS = 7
SETUP_EVERY_S = 3.0  # least time between setup samples taken during the chain runs
MIN_CHAIN_RUNS = 3


class Program:
    """The phenotag modules, imported from the checkout's ``src/``."""

    def __init__(self, root: Path):
        src = root / "src"
        if not (src / "phenotag" / "__init__.py").is_file():
            raise SystemExit(f"error: no phenotag sources under {src}; run from a checkout root")
        sys.path.insert(0, str(src))
        import phenotag
        from phenotag import annotate, cli, config, corpus, evaluate, ontology, orchestrate

        if Path(phenotag.__file__).resolve().parent != (src / "phenotag").resolve():
            raise SystemExit(f"error: phenotag imported from {phenotag.__file__}, not {src}")
        self.src = src
        self.cli, self.config, self.corpus, self.evaluate = cli, config, corpus, evaluate
        self.annotate, self.ontology, self.orchestrate = annotate, ontology, orchestrate


class SetupTimer:
    """Wall time of a fresh interpreter importing ``phenotag.cli``.

    Samples are taken between chain runs, so they spread over the whole
    measuring time, and each is scaled to reference processor speed by the
    interpreter-bound scan kernel run right before and after it: importing
    is interpreter-bound too, and the scaled median is steadier than the raw
    one (CHANGES.md has the figures).
    """

    def __init__(self, src: Path):
        self._env = dict(os.environ)
        self._env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), self._env.get("PYTHONPATH")])
        )
        self._command = [sys.executable, "-c", "import phenotag.cli"]
        self.samples: list[float] = []
        self.raw: list[float] = []
        subprocess.run(self._command, env=self._env, check=True)  # compiles bytecode once
        self.last = time.perf_counter()

    def sample(self) -> None:
        before = speed.kernel_time()
        start = time.perf_counter()
        subprocess.run(self._command, env=self._env, check=True)
        wall = time.perf_counter() - start
        after = speed.kernel_time()
        self.raw.append(wall)
        self.samples.append(speed.scaled(wall, before, after))
        self.last = time.perf_counter()


def load_catalogue(root: Path) -> dict[str, list[tuple[str, str]]]:
    """(name, unit) of every metric in BENCHMARK.json, by section.

    Refuses to run when a per-layer metric has no recorded prediction.
    """
    manifest = root / "BENCHMARK.json"
    if not manifest.is_file():
        raise SystemExit(f"error: no BENCHMARK.json in {root}; run from a checkout root")
    spec = json.loads(manifest.read_text(encoding="utf-8"))
    unpredicted = [m["name"] for m in spec["per_layer"] if m["name"] not in metrics.PREDICTIONS]
    if unpredicted:
        raise SystemExit(f"error: no prediction in benchmarks/metrics.py for {unpredicted}")
    return {section: [(m["name"], m["unit"]) for m in spec[section]]
            for section in ("end_to_end", "per_layer")}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(chains, setup_s, failed_ratio) -> dict[str, float]:
    return {
        "total_s": _median([c.total_s if c.scaled_s is None else c.scaled_s for c in chains]),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": 1.0 - failed_ratio,
    }


def per_layer(workload, truth, plain, traced, tracer, failed_ratio) -> dict[str, float]:
    items = workload.items(truth)
    values: dict[str, float] = {}
    for stage, unit in (("annotate", "records"), ("run", "mentions"), ("raft", "questions")):
        times = [c.stages[stage] for c in plain if stage in c.stages]
        values[f"stage.{stage}.{unit}_per_s"] = items[stage] / _median(times) if times else 0.0
    values["stage.failed_ratio"] = failed_ratio
    values["trace.total_s"] = _median([c.total_s for _, c in traced])
    values["trace.overhead_s"] = values["trace.total_s"] - _median([c.total_s for c in plain])
    per_run = [spans.run_metrics(tracer, run) for run, _ in traced]
    for name in per_run[0]:
        values[name] = _median([m[name] for m in per_run])
    records = items.get("annotate", 0)
    values["annotate.submit.ms_per_record"] = (
        1000.0 * values["annotate.submit.s"] / records if records else 0.0
    )
    values.update(spans.latency_metrics(tracer, [run for run, _ in traced]))
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    program = Program(root)
    catalogue = load_catalogue(root)["per_layer" if args.trace else "end_to_end"]
    workload = WORKLOADS[args.workload]
    work = root / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    inputs.mkdir(parents=True)

    setup = None if args.trace else SetupTimer(program.src)
    truth = workload.generate(inputs, args.seed, SIZES[args.workload])
    operations = workload.operations(truth)
    tracer = spans.Tracer(program) if args.trace else None
    plain, traced, problems, reference = [], [], [], None
    scale = workload.scaled and not args.trace
    min_runs = 2 * MIN_CHAIN_RUNS - 2 if args.trace else MIN_CHAIN_RUNS
    failed_runs = 0
    deadline = time.perf_counter() + args.seconds
    run = 0
    while run < min_runs or time.perf_counter() < deadline:
        rep = work / f"run{run}"
        workload.prepare(inputs, rep)
        try:
            if args.trace and run % 2:
                with tracer.tracing(run):
                    chain = workload.chain(program, inputs, rep, truth, False)
                traced.append((run, chain))
            else:
                chain = workload.chain(program, inputs, rep, truth, scale)
                plain.append(chain)
        except Exception as exc:  # a crashed chain is a failed run, reported below
            problems.append(f"chain run {run}: {type(exc).__name__}: {exc}")
            failed_runs += 1
            break
        run_problems = gate.check_every_run(args.workload, truth, chain, operations)
        digests = chain.digests()
        if reference is None:  # full check once; later runs must write the same bytes
            reference = digests
            run_problems += gate.CHECKS[args.workload](truth, chain.out_dir)
        else:
            if digests != reference:
                run_problems.append("result files differ from the first chain run at this seed")
            shutil.rmtree(rep)
        if run_problems:
            failed_runs += 1
            problems += [f"chain run {run}: {p}" for p in run_problems]
        if setup and time.perf_counter() - setup.last >= SETUP_EVERY_S:
            setup.sample()
        run += 1
    while setup and not problems and len(setup.samples) < SETUP_RUNS:
        setup.sample()

    attempted = operations * run if run else operations
    correct = not problems
    result = {"correct": correct, "attempted": attempted,
              "failed": operations * failed_runs, "metrics": {}}
    if correct:
        failed_ratio = plain[0].failed_ops / operations
        if args.trace:
            values = per_layer(workload, truth, plain, traced, tracer, failed_ratio)
            spans_dir = root / ".bench_work" / "spans"
            spans_dir.mkdir(exist_ok=True)
            tracer.write(spans_dir / f"{args.workload}-seed{args.seed}.jsonl")
        else:
            values = end_to_end(plain, statistics.median(setup.samples), failed_ratio)
        unproduced = [name for name, _ in catalogue if name not in values]
        if unproduced:
            raise SystemExit(f"error: BENCHMARK.json names metrics nothing measures: {unproduced}")
        result["metrics"] = {name: {"value": values[name], "unit": unit}
                             for name, unit in catalogue}
        print(f"{args.workload} seed={args.seed}: {run} chain runs ({len(traced)} traced), "
              f"{operations} operations each, {len(setup.samples) if setup else 0} setup samples")
        for name, entry in result["metrics"].items():
            print(f"  {name:36s} {entry['value']:14.6f} {entry['unit']}")
        if setup:
            print(f"  unscaled setup_s {statistics.median(setup.raw):.6f} s")
        if scale:
            print(f"  unscaled total_s {_median([c.total_s for c in plain]):.6f} s")
        shutil.rmtree(inputs)
    else:
        for problem in problems:
            print(f"GATE FAILED {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
