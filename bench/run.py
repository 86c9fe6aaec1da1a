"""Benchmark for momentcert: one named workload, end-to-end or traced.

    python3 bench/run.py --workload certify --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --scaling

A run builds the workload's inputs from the seed, runs one untimed
warm-up pass, checks the warm-up outputs against the oracles, and then
runs whole passes until --seconds have gone by.  After each item it times
the reference kernel (refkernel.py) and reports item costs in units of
it.  The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  Lines before it give
the sample count, raw items/s and the reference kernel's own speed.

Set-up (imports, inputs, corpus export, warm-up pass) is done SETUPS
times in this process, each time on freshly imported momentcert modules;
the last one's workload is measured.  Each sample is scaled to the
reference kernel's nominal speed (see setup); setup_s is their median, and
the raw wall times and scaled samples are printed beside it.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
if not (SRC / "momentcert" / "__init__.py").is_file():
    raise SystemExit(f"error: no momentcert sources under {SRC}")
sys.path[:0] = [str(BENCH), str(SRC)]

import refkernel  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUPS = 5
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919


def setup(name: str, seed: int, workdir: Path):
    """Imports, inputs, corpus export and the warm-up pass.

    momentcert is dropped from sys.modules first, so every set-up imports
    it afresh.  The warm-up pass times the reference kernel around its
    items like a measured pass.  Returns (workload, warm-up digests, (wall
    seconds, seconds at the kernel's nominal speed)); both leave out the
    kernel's own time.  The second cancels the machine's speed drift: each
    warm-up item's time is scaled by its adjacent kernel runs, as in a
    measured pass, and the rest (imports, inputs, export) by the median
    kernel time of this set-up; NOMINAL_S is one kernel unit.
    """
    for module in [k for k in sys.modules if k.partition(".")[0] == "momentcert"]:
        del sys.modules[module]
    gc.collect()
    start = time.perf_counter()
    m = workloads.load_modules()
    workload = workloads.build(name, m, seed, workdir)
    times: list[tuple[float, float, float]] = []
    warm = {item.label: digest for item, digest, _ in run_pass(workload, None, times)}
    gc.collect()
    kernel = [times[0][1]] + [after for _, _, after in times]
    wall = time.perf_counter() - start - sum(kernel)
    rest = wall - sum(t for t, _, _ in times)
    units = len(times) * _cost(times) + rest / statistics.median(kernel)
    return workload, warm, (wall, units * refkernel.NOMINAL_S)


def run_pass(workload, tracer=None, times=None):
    """Run every item once; returns [(item, digest, seconds)].

    With `times`, the reference kernel is timed before the first item
    and after each item, and (item seconds, kernel seconds before, kernel
    seconds after) is appended to it for each item.
    """
    before = refkernel.timed_reference() if times is not None else 0.0
    out = []
    for index, item in enumerate(workload.items):
        if tracer is not None:
            tracer.item = index
        start = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.span("item"):
                    result = item.run()
            else:
                result = item.run()
        except Exception as exc:  # a failing item is counted, not fatal
            elapsed = time.perf_counter() - start
            digest = workloads.Failed(f"{type(exc).__name__}: {exc}")
        else:
            elapsed = time.perf_counter() - start
            digest = item.digest(result)
        if times is not None:
            after = refkernel.timed_reference()
            times.append((elapsed, before, after))
            before = after
        out.append((item, digest, elapsed))
    return out


def check_pass(results, expected, faults: list[str]) -> int:
    """Compare digests with the oracle's values; returns the failed count."""
    failed = 0
    for item, digest, _ in results:
        if digest == expected.get(item.label) and not isinstance(digest, workloads.Failed):
            continue
        failed += 1
        if not item.known_fault:
            faults.append(f"{item.label}: got {digest!r}, expected {expected.get(item.label)!r}")
    return failed


@dataclass
class Measurement:
    """Per item (seconds, kernel seconds before, kernel seconds after), for
    the untraced and the traced passes, and the pass checks' tally."""

    times: list = field(default_factory=list)
    traced_times: list = field(default_factory=list)
    tracer: tracing.Tracer | None = None
    traced_passes: int = 0
    attempted: int = 0
    failed: int = 0
    faults: list = field(default_factory=list)


def measure(workload, expected, seconds: float, traced: bool) -> Measurement:
    """Whole passes until `seconds` have passed; traced runs alternate an
    untraced and a traced pass."""
    got = Measurement(tracer=tracing.Tracer() if traced else None)
    passes = 0
    start = time.perf_counter()
    while passes < (2 if traced else 1) or time.perf_counter() - start < seconds:
        gc.collect()
        if traced and passes % 2 == 1:
            got.tracer.record_spans = got.traced_passes == 0
            got.tracer.install()
            try:
                results = run_pass(workload, got.tracer, got.traced_times)
            finally:
                got.tracer.uninstall()
            got.traced_passes += 1
        else:
            results = run_pass(workload, None, got.times)
        got.attempted += len(results)
        got.failed += check_pass(results, expected, got.faults)
        passes += 1
    return got


def _cost(times) -> float:
    """Item time over reference time, where an item's reference time is the
    mean of the kernel runs just before and just after it."""
    return sum(t for t, _, _ in times) / sum((b + a) / 2 for _, b, a in times)


def end_to_end(times, setups) -> dict:
    ratios = [2 * t / (b + a) for t, b, a in times]
    deciles = statistics.quantiles(ratios, n=10)
    return {
        "setup_s": (statistics.median(nominal for _, nominal in setups), "s"),
        "item_cost_ref": (_cost(times), "ref"),
        "item_p50_ref": (statistics.median(ratios), "ref"),
        "item_p90_ref": (deciles[8], "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def per_layer(got: Measurement) -> dict:
    values = got.tracer.per_pass(got.traced_passes)
    values["trace.overhead_pct"] = (_cost(got.traced_times) / _cost(got.times) - 1) * 100
    return {name: (values[name], unit) for name, unit in tracing.PER_LAYER}


def write_spans(tracer, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        fh.write("name\tstart_s\tend_s\tparent\titem\n")
        for name, start, end, parent, item in tracer.spans:
            fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{item}\n")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out "
                             "for confirming a claimed gain)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scaling", action="store_true",
                        help="reference scaling figures instead of a workload run")
    args = parser.parse_args(argv)
    if not args.scaling and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.scaling:
        import scaling
        return scaling.main()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        setups = []
        for index in range(SETUPS):
            workload = None  # let the last set-up's modules go first
            workload, warm, sample = setup(args.workload, args.seed, workdir / str(index))
            setups.append(sample)
        expected, faults = workload.oracle(warm)
        got = measure(workload, expected, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    faults += got.faults
    for fault in dict.fromkeys(faults):
        print(f"# FAULT {fault}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(got)
        spans = OUT / f"trace-{args.workload}-{args.seed}.tsv"
        write_spans(got.tracer, spans)
        print(f"# {len(got.tracer.spans)} spans written to {spans.relative_to(ROOT)}")
    else:
        metrics = end_to_end(got.times, setups)
    times = got.times
    kernel = statistics.median(b for _, b, _ in times)
    print(f"# workload={args.workload} seed={args.seed} samples={len(times)} "
          f"items_per_s={len(times) / sum(t for t, _, _ in times):.2f} "
          f"ref_kernel_ms={kernel * 1e3:.4f} "
          f"setup_wall_s={','.join(f'{wall:.3f}' for wall, _ in setups)} "
          f"setup_scaled_s={','.join(f'{scaled:.3f}' for _, scaled in setups)}")
    print(json.dumps({
        "correct": not faults,
        "attempted": got.attempted,
        "failed": got.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
