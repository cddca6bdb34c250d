"""Closed-loop benchmark of the traceforms library.

    python3 bench/run.py --workload certify --seed 1 --seconds 15 --trace 0

One client in one process and one thread sends the next op only after the
last one finished.  Each op is timed in two steps (issue, then verify; see
`workloads.py`) and checked against a known answer outside the timed region.
A run does whole periods of each workload's input strata, as many as take
about --seconds at the seed commit; op times are rescaled to a nominal core
speed (see `SpeedGauge`).
The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the line before it holds the details (output digest,
tail percentile and sample counts, set-up samples).

--trace 0 reports the end-to-end metrics.  --trace 1 runs a fixed number of
ops three times: untraced, traced, and traced again to confirm that every
count repeats exactly; it reports the per-layer metrics of the first traced
pass and the tracing overhead, and writes the spans to `.bench_out/`.

The library is imported from `src/` of the checkout this file lives in.
"""

from __future__ import annotations

import argparse
import collections
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from fractions import Fraction
from time import perf_counter
from types import SimpleNamespace

from tracer import FIELDS, Tracer, metric_names
from workloads import WORKLOADS, CheckFailed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 5
WALL_LIMIT_S = 150  # stop taking new ops past this, well inside the per-run limit
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "verify_p50_s": "s",
    "verify_tail_s": "s",
    "certified_share": "share",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


class SpeedGauge:
    """Tracks how fast this core runs right now, to rescale op times to a nominal speed.

    On a host whose cores are shared with other workloads, a fixed
    computation can take twice as long in one ten-second stretch as in the
    next; wall and CPU time move together, so it is the core that slows,
    not the scheduler.  Before an op (at most every INTERVAL_S) the gauge
    times a fixed reference computation of the kinds the workloads do:
    Fraction arithmetic, a small-int loop, and tuple and set churn, with the
    cyclic collector off so the heap the library leaves behind does not slow
    it.
    An op's nominal time is its measured time times NOMINAL_S over the
    median of the last WINDOW reference times.
    """

    NOMINAL_S = 0.003  # the reference computation's time at the nominal speed
    INTERVAL_S = 0.2
    WINDOW = 5

    def __init__(self):
        self.samples: collections.deque[float] = collections.deque(maxlen=self.WINDOW)
        self.all_samples: list[float] = []
        self._last = float("-inf")

    @staticmethod
    def _reference() -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            acc = Fraction(0)  # rational arithmetic, as in certify
            for i in range(1, 350):
                acc += Fraction(i % 89 + 1, i % 97 + 1)
            n, d, hits = 10**12 + 39, 3, 0  # a small-int loop, as in trial division and Z/pZ work
            while d < 20_000:
                hits += n % d == 0
                d += 2
            seen = set()  # tuple and set churn, as in the group checks
            for i in range(5_500):
                seen.add((i * 7919 % 1009, i % 13))
            return perf_counter() - start
        finally:
            if enabled:
                gc.enable()

    def tick(self, force: bool = False) -> None:
        """Time the reference computation if forced or the last sample is older than INTERVAL_S."""
        now = perf_counter()
        if force or now - self._last >= self.INTERVAL_S:
            elapsed = self._reference()
            self.samples.append(elapsed)
            self.all_samples.append(elapsed)
            self._last = perf_counter()

    def scale(self, last: int = WINDOW) -> float:
        """Nominal over current speed, from the median of the `last` reference times."""
        return self.NOMINAL_S / statistics.median(list(self.samples)[-last:])


def load_library() -> SimpleNamespace:
    """Import traceforms afresh, so repeated set-ups each pay for the import."""
    for name in [k for k in sys.modules if k == "traceforms" or k.startswith("traceforms.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return SimpleNamespace(
        tf=importlib.import_module("traceforms"),
        serialize=importlib.import_module("traceforms.serialize"),
        groups=importlib.import_module("traceforms.groups"),
    )


def clear_library_caches() -> None:
    """Empty every functools cache in the package, so passes start alike."""
    for name, module in list(sys.modules.items()):
        if name == "traceforms" or name.startswith("traceforms."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def input_key(inp: dict) -> str:
    return json.dumps({k: v for k, v in inp.items() if k != "index"}, sort_keys=True, default=str)


def set_up(workload, seed: int):
    """Import, generate the first period's inputs, and warm up on disjoint inputs."""
    start = perf_counter()
    lib = load_library()
    first = [workload.make_input(lib, seed, i) for i in range(workload.period)]
    warmup = workload.warmup_inputs(lib)
    for inp in warmup:
        text = workload.op(lib, inp)
        workload.check(lib, inp, text, workload.verify(lib, inp, text))
    return lib, first, {input_key(inp) for inp in warmup}, perf_counter() - start


def timed_inputs(workload, lib, seed: int, count: int, first: list, warm_keys: set):
    """The first `count` inputs of the seed's stream; none may repeat a warm-up input."""
    for i in range(count):
        inp = first[i] if i < len(first) else workload.make_input(lib, seed, i)
        if input_key(inp) in warm_keys:
            raise SystemExit("a timed input repeats a warm-up input")
        yield inp


def timed_op(workload, lib, inp):
    """(op seconds, verify seconds, output text, verdict); raises what the library raises."""
    t0 = perf_counter()
    text = workload.op(lib, inp)
    t1 = perf_counter()
    verdict = workload.verify(lib, inp, text)
    return t1 - t0, perf_counter() - t1, text, verdict


def tail(samples: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with TAIL_BEYOND samples beyond it, and that percentile."""
    ordered = sorted(samples)
    n = len(ordered)
    j = max(n - 1 - TAIL_BEYOND, 0)
    return ordered[j], 100.0 * (j + 1) / n


def self_test(workload, lib, first_positive) -> list[str]:
    """Labels of deliberately wrong outputs that a check failed to reject."""
    if first_positive is None:
        return ["no positive op to corrupt"]
    missed = []
    for label, attempt in workload.corruptions(lib, *first_positive):
        try:
            attempt()
        except CheckFailed:
            continue
        missed.append(label)
    return missed


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_untraced(workload, seed: int, seconds: float) -> dict:
    gauge = SpeedGauge()
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        gauge.tick(force=True)
        lib, first, warm_keys, elapsed = set_up(workload, seed)
        gauge.tick(force=True)
        setups.append(elapsed * gauge.scale(last=2))
        raw_setups.append(elapsed)

    # A fixed amount of work for a given --seconds: whole periods, as many as
    # take about `seconds` at the seed commit.  Every run of one seed then does
    # the same ops, and the tail percentile does not move when the code speeds up.
    ops = max(1, round(seconds / workload.period_s)) * workload.period
    raw_s, op_s, verify_s, errors = [], [], [], []  # op_s and verify_s at nominal speed
    digest = hashlib.sha256()
    positives = 0
    first_positive = None
    timed = 0.0
    loop_start = perf_counter()
    for i, inp in enumerate(timed_inputs(workload, lib, seed, ops, first, warm_keys)):
        if perf_counter() - loop_start > WALL_LIMIT_S:
            errors.append(f"stopped after {i} of {ops} ops: over {WALL_LIMIT_S} s")
            break  # the ops not run count as failed
        gauge.tick()
        start = perf_counter()
        try:
            t_op, t_verify, text, verdict = timed_op(workload, lib, inp)
            workload.check(lib, inp, text, verdict)
        except Exception as exc:  # a failing op is counted, never fatal
            errors.append(f"op {i}: {type(exc).__name__}: {exc}")
            t_op = t_verify = perf_counter() - start
            text = None
        scale = gauge.scale()
        raw_s.append(t_op + t_verify)
        op_s.append(t_op * scale)
        verify_s.append(t_verify * scale)
        timed += t_op + t_verify
        if text is not None:
            digest.update(text.encode())
            is_positive = workload.positive(text, verdict)
            positives += is_positive
            if is_positive and first_positive is None:
                first_positive = (inp, text, verdict)

    missed = self_test(workload, lib, first_positive)
    op_tail, op_pct = tail(op_s)
    verify_tail, verify_pct = tail(verify_s)
    failed = ops - len(op_s) + sum(1 for e in errors if e.startswith("op "))
    passed = ops - failed
    details = {
        "workload": workload.name,
        "seed": seed,
        "digest": digest.hexdigest(),
        "samples": len(op_s),
        "op_tail_percentile": op_pct,
        "verify_tail_percentile": verify_pct,
        "timed_s": timed,
        "raw_ops_per_s": passed / timed,
        "raw_op_plus_verify_p50_s": statistics.median(raw_s),
        "reference_s": {"median": statistics.median(gauge.all_samples), "min": min(gauge.all_samples),
                        "max": max(gauge.all_samples), "samples": len(gauge.all_samples)},
        "raw_setup_samples_s": raw_setups,
        "failed_share": failed / ops,
        "errors": errors[:5],
        "unrejected_corruptions": missed,
    }
    metrics = {
        "ops_per_s": passed / (sum(op_s) + sum(verify_s)),
        "op_p50_s": statistics.median(op_s),
        "op_tail_s": op_tail,
        "verify_p50_s": statistics.median(verify_s),
        "verify_tail_s": verify_tail,
        "certified_share": positives / ops,
        "setup_s": statistics.median(setups),
        "peak_rss_mib": peak_rss_mib(),
    }
    return {
        "details": details,
        "correct": not errors and not missed,
        "attempted": ops,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in metrics.items()},
    }


def traced_pass(workload, lib, inputs, tracer=None):
    """Run the inputs once; returns (timed seconds at nominal speed, outputs).  Checks come after."""
    clear_library_caches()
    gauge = SpeedGauge()
    outputs = []
    timed = 0.0
    if tracer:
        tracer.install()
    try:
        for i, inp in enumerate(inputs):
            gauge.tick()
            if tracer:
                tracer.op_id = i
            try:
                t_op, t_verify, text, verdict = timed_op(workload, lib, inp)
            except Exception as exc:
                outputs.append(exc)
                continue
            timed += (t_op + t_verify) * gauge.scale()
            outputs.append((text, verdict))
    finally:
        if tracer:
            tracer.uninstall()
    return timed, outputs


def run_traced(workload, seed: int) -> dict:
    lib, first, warm_keys, _ = set_up(workload, seed)
    inputs = list(timed_inputs(workload, lib, seed, workload.traced_periods * workload.period, first, warm_keys))
    untraced_s, plain = traced_pass(workload, lib, inputs)
    tracer = Tracer()
    traced_s, traced = traced_pass(workload, lib, inputs, tracer)
    repeat = Tracer(record_spans=False)
    _, repeated = traced_pass(workload, lib, inputs, repeat)

    errors = []
    for label, outputs in (("untraced", plain), ("traced", traced), ("repeat", repeated)):
        for i, (inp, out) in enumerate(zip(inputs, outputs)):
            try:
                if isinstance(out, Exception):
                    raise out
                workload.check(lib, inp, *out)
            except Exception as exc:
                errors.append(f"{label} op {i}: {type(exc).__name__}: {exc}")
    outputs_differ = [i for i, (a, b) in enumerate(zip(plain, traced)) if a != b]
    counts_differ = sorted(
        k for k in set(tracer.exact_counts()) | set(repeat.exact_counts())
        if tracer.exact_counts().get(k) != repeat.exact_counts().get(k)
    )

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"spans-{workload.name}-seed{seed}.json")
    tracer.dump_spans(spans_path)

    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
    names = metric_names() + ["trace.overhead_s", "trace.overhead_pct"]
    details = {
        "workload": workload.name,
        "seed": seed,
        "ops": len(inputs),
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "spans": len(tracer.spans) // len(FIELDS),
        "spans_file": os.path.relpath(spans_path, ROOT),
        "errors": errors[:5],
        "outputs_differ_when_traced": outputs_differ,
        "counts_differ_between_traced_passes": counts_differ,
    }
    return {
        "details": details,
        "correct": not errors and not outputs_differ and not counts_differ,
        "attempted": 3 * len(inputs),
        "failed": len(errors),
        "metrics": {name: {"value": metrics[name], "unit": _layer_unit(name)} for name in names},
    }


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds", type=float, required=True, help="run as many whole periods as take about this long at the seed commit"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if sys.flags.optimize:
        print("error: refusing to run under python -O: it strips the library's assert "
              "cross-checks, so the numbers would measure a different program", file=sys.stderr)
        return 2
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "traceforms")):
        print(f"error: no traceforms package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    workload = WORKLOADS[args.workload]()
    if args.trace:
        result = run_traced(workload, args.seed)
    else:
        result = run_untraced(workload, args.seed, args.seconds)
    result["details"]["python"] = platform.python_version()
    print(json.dumps(result.pop("details"), sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
