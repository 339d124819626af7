"""Benchmark of the spindisk command-line workloads.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload analyse --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

One closed-loop client drives the `spindisk` CLI in-process through click's
CliRunner on model files generated from --seed.  The timed phase runs
whole blocks of items (see workloads.py) until --seconds have passed.
Every item's output is checked after the timed phase.  With --trace 1 the
same run then repeats the first blocks with span wrappers installed and
reports per-layer metrics instead of end-to-end ones.

Time metrics are reported at a nominal machine speed: each raw time is
scaled by the ratio of REF_NOMINAL_S to the time of a fixed reference
loop timed next to it (see REF_LOOPS).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A fuller record (context,
digests, latencies, failure reasons) and, for traced runs, the spans are
written under .bench_out/ in the checkout.
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Fresh interpreters started per run to time set-up; setup_s is their median.
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120

#: Reference loop timed after every measured item and after each set-up
#: probe.  It is the benchmark's own code and never calls the package.
#: The speed of a shared host changes by a quarter or more from run to
#: run; the loop slows with it, so every time metric is reported at the
#: speed of a machine on which the loop takes REF_NOMINAL_S.  An item's
#: latency is scaled by REF_NOMINAL_S over the median loop time of the
#: REF_WINDOW items on each side of it and itself; a set-up probe's time by
#: REF_NOMINAL_S over the median of REF_PROBE_SAMPLES loops after it.  The
#: raw values are kept in the record.
REF_LOOPS = 10_000
REF_PASSES = 35
REF_NOMINAL_S = 0.0025
REF_WINDOW = 2
REF_PROBE_SAMPLES = 25

UNITS = {
    "setup_s": "s", "items_per_s": "1/s", "item_p50_ms": "ms", "peak_rss_mb": "MB",
    "trace_overhead_ratio": "ratio", "layer_share_total": "ratio",
}


def _unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    suffix = name.rsplit(".", 1)[-1]
    return {"self_s": "s", "share": "ratio", "evals_per_s": "1/s",
            "improving_start_ratio": "ratio", "bytes_out": "bytes"}.get(suffix, "count")


@functools.cache
def _reference_arrays():
    import numpy

    grid = numpy.linspace(0.0, math.pi, 721)
    return grid, numpy.random.default_rng(0).random(60_000)


def reference_s() -> float:
    """Time one run of the reference loop.

    It mixes, in roughly equal parts, what spindisk commands spend their
    time on: Python arithmetic, numpy calls on small arrays with JSON text,
    and one sort of a larger array.
    """
    import numpy

    grid, block = _reference_arrays()
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(REF_LOOPS):
        acc += i * i
    for i in range(REF_PASSES):
        acc += float(numpy.abs(numpy.sin(grid)).max())
        acc += float(numpy.cos(grid + i).sum())
        acc += len(json.dumps({"i": i, "row": [i] * 5}))
    numpy.sort(block)
    return time.perf_counter() - t0


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _prepare_imports() -> None:
    """Cap BLAS threads, then put the checkout's own sources on sys.path."""
    nproc = _nproc()
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        if not value.isdigit() or int(value) > nproc:
            os.environ[var] = str(nproc)
    if not (SRC / "spindisk" / "__init__.py").is_file():
        raise SystemExit(f"error: no spindisk sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import spindisk

    if Path(spindisk.__file__).resolve().parent != SRC / "spindisk":
        raise SystemExit(f"error: imported spindisk from {spindisk.__file__}, not {SRC}")


@dataclass
class Phase:
    runs: list  # (item, outputs, error) per item, in order
    latencies: list[float]
    wall: float
    block_sizes: list[int]
    references: list[float]  # reference loop time after each item, if timed

    def scaled_latencies(self) -> list[float]:
        """Item latencies at nominal speed (see REF_WINDOW)."""
        refs, w = self.references, REF_WINDOW
        return [lat * REF_NOMINAL_S / statistics.median(refs[max(0, i - w):i + w + 1])
                for i, lat in enumerate(self.latencies)]

    def block_rates(self, latencies: list[float]) -> list[float]:
        """Items per second of item time in each block."""
        rates, start = [], 0
        for n in self.block_sizes:
            rates.append(n / sum(latencies[start:start + n]))
            start += n
        return rates


def _run_item(invoke, cli, item) -> tuple[list[bytes], str | None]:
    outputs = []
    for argv in item.commands:
        res = invoke(cli, argv)
        if res.exit_code != 0:
            detail = res.stderr.strip()[:200] or repr(res.exception)
            return outputs, f"{argv[0]} exited {res.exit_code}: {detail}"
        outputs.append(res.stdout_bytes)
    return outputs, None


def _measure(blocks, invoke, cli, seconds: float, min_blocks: int, tracer=None,
             reference: bool = False) -> Phase:
    """Closed loop over whole blocks until min_blocks and seconds are both reached.

    With `reference`, the reference loop is timed after every item.
    """
    runs, latencies, block_sizes, references = [], [], [], []
    clock = time.perf_counter
    t0 = clock()
    b = 0
    while b < min_blocks or clock() - t0 < seconds:
        block = blocks[b % len(blocks)]
        for item in block:
            if tracer is not None:
                tracer.item = item.item_id
            ts = clock()
            outputs, error = _run_item(invoke, cli, item)
            latencies.append(clock() - ts)
            runs.append((item, outputs, error))
            if reference:
                references.append(reference_s())
        block_sizes.append(len(block))
        b += 1
    return Phase(runs, latencies, clock() - t0, block_sizes, references)


def _failures(workload: str, runs) -> list[str]:
    """One reason per failed item: a non-zero exit, a raise, or a failed check."""
    import checks

    check = checks.CHECKS[workload]
    reasons = []
    for item, outputs, error in runs:
        if error is None:
            try:
                error = check(item, outputs)
            except Exception as exc:  # a malformed output is a failed item
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            reasons.append(f"item {item.item_id} ({item.kind}): {error}")
    return reasons


def _digest(runs) -> str:
    h = hashlib.sha256()
    for _, outputs, _ in runs:
        for out in outputs:
            h.update(len(out).to_bytes(8, "little"))
            h.update(out)
    return h.hexdigest()


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _context(workload: str, seed: int) -> dict:
    import numpy
    import scipy
    from importlib.metadata import version

    return {
        "workload": workload, "seed": seed, "git_sha": _git_sha(), "nproc": _nproc(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "click": version("click"),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _setup(workload: str, seed: int, workdir: Path, tiny: bool):
    """Imports, input generation and one untimed warm-up item."""
    from click.testing import CliRunner

    from spindisk.cli import main as cli

    import workloads

    shutil.rmtree(workdir, ignore_errors=True)
    inputs = workloads.generate(workload, seed, os.path.relpath(workdir), tiny=tiny)
    runner = CliRunner()
    _run_item(runner.invoke, cli, inputs.warmup)
    return inputs, runner, cli


def _setup_samples(workload: str, seed: int, n: int) -> list[tuple[float, float]]:
    """Time n fresh interpreters from spawn to the end of their warm-up item.

    Each sample is (set-up time, median reference loop time in that probe).
    """
    samples = []
    for _ in range(n):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        # perf_counter is the system-wide monotonic clock, so the child's
        # reading is comparable with the parent's.
        end, ref = (float(x) for x in proc.stdout.split()[-2:])
        samples.append((end - t0, ref))
    return samples


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, probes: int = SETUP_PROBES) -> tuple[dict, dict]:
    """Run one workload; return the printed result object and the full record."""
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{workload}-s{seed}"
    inputs, runner, cli = _setup(workload, seed, workdir, tiny)
    setup_self_s = time.perf_counter() - T_START
    min_blocks = min(workloads.MIN_BLOCKS[workload], len(inputs.blocks))

    phase = _measure(inputs.blocks, runner.invoke, cli, seconds, min_blocks,
                     reference=not trace)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reasons = _failures(workload, phase.runs)
    digest_agrees = True
    prefix = sum(len(inputs.blocks[b % len(inputs.blocks)]) for b in range(min_blocks))
    output_digest = _digest(phase.runs[:prefix])
    attempted = len(phase.runs)
    record = {
        "context": _context(workload, seed),
        "input_digest": inputs.digest,
        "output_digest": output_digest,
        "output_digest_items": prefix,
        "setup_self_s": setup_self_s,
        "blocks": len(phase.block_sizes),
        "latencies_ms": [x * 1e3 for x in phase.latencies],
        "references_ms": [x * 1e3 for x in phase.references],
        "item_kinds": [item.kind for item, _, _ in phase.runs],
    }

    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            invoke = tracer.span(tracing.INVOKE, runner.invoke,
                                 lambda a, kw, r: {"cli.bytes_out": len(r.stdout_bytes)})
            traced = _measure(inputs.blocks, invoke, cli, 0.0, min_blocks, tracer)
        finally:
            tracer.uninstall()
        reasons += _failures(workload, traced.runs)
        attempted += len(traced.runs)
        digest_agrees = _digest(traced.runs) == output_digest
        metrics = tracer.layer_metrics(traced.wall)
        untraced_rate = prefix / sum(phase.latencies[:prefix])
        metrics["trace_overhead_ratio"] = (prefix / sum(traced.latencies)) / untraced_rate
        spans_path = OUT / f"spans-{workload}-seed{seed}.json"
        with open(spans_path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "item"],
                       "spans": tracer.spans}, fh, separators=(",", ":"))
        record["spans_file"] = os.path.relpath(spans_path, ROOT)
    else:
        reference = statistics.median(phase.references)
        if probes:
            setup = _setup_samples(workload, seed, probes)
            shutil.rmtree(OUT / f"probe-{workload}-s{seed}", ignore_errors=True)
        else:
            setup = [(setup_self_s, reference)]
        scaled = phase.scaled_latencies()
        raw = {
            "setup_s": statistics.median(t for t, _ in setup),
            "items_per_s": statistics.median(phase.block_rates(phase.latencies)),
            "item_p50_ms": statistics.median(phase.latencies) * 1e3,
        }
        record.update(setup_samples_s=setup, reference_median_s=reference,
                      raw_metrics=raw)
        metrics = {
            "setup_s": statistics.median(t * REF_NOMINAL_S / ref for t, ref in setup),
            "items_per_s": statistics.median(phase.block_rates(scaled)),
            "item_p50_ms": statistics.median(scaled) * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }

    shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": not reasons and digest_agrees,
        "attempted": attempted,
        "failed": len(reasons),
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }
    record.update(failed_frac=len(reasons) / attempted, failures=reasons[:50],
                  traced_digest_agrees=digest_agrees, result=result)
    with open(OUT / f"{workload}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return result, record


def _run_all(seed: int, seconds: float, trace: int) -> int:
    """Run every workload in its own process and print a metric table."""
    import workloads

    results = {}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        results[workload] = json.loads(proc.stdout.splitlines()[-1])
    for workload, res in results.items():
        print(f"{workload}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for name, m in res["metrics"].items():
            print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("analyse", "simulate", "optimise", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _prepare_imports()
    os.chdir(ROOT)
    if args.workload == "all":
        return _run_all(args.seed, args.seconds, args.trace)
    if args.setup_probe:
        _setup(args.workload, args.seed, OUT / f"probe-{args.workload}-s{args.seed}", False)
        end = time.perf_counter()
        print(end, statistics.median(reference_s() for _ in range(REF_PROBE_SAMPLES)))
        return 0

    result, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("context: " + json.dumps({**record["context"], "input_digest": record["input_digest"],
                                    "output_digest": record["output_digest"],
                                    "failed_frac": record["failed_frac"]}))
    if "raw_metrics" in record:
        print("raw: " + json.dumps({**record["raw_metrics"],
                                    "reference_median_s": record["reference_median_s"]}))
    for reason in record["failures"][:5]:
        print("failure: " + reason)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
