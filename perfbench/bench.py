"""Run one workload: set up, measure for a fixed time, check, report.

Untraced (trace=0): set up SETUP_REPS times and report the median as
setup_s, run one warm-up op, then run the workload's op in a closed loop
for `seconds` and report the end-to-end metrics.

Traced (trace=1): set up once under a tracer, run one warm-up op, then for
`seconds` run the op untraced and traced in turn, and report per-layer
metrics per unit of work (a training step or a slice). Tracing overhead is
the difference between the untraced and traced ops' wall time per unit;
alternating them keeps machine drift out of that difference.

The warm-up op is not measured. The first op in a process runs cold: a
paper-scale slice takes about 2 s longer than the next ones. A user
predicting a stack in one process pays that on the first slice only.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import microvolumetry as mv
from tracing import MODULES, Patches, StepClock, Tracer, gemm_probe, layer_sizes, summarize
from workloads import GOLDEN_DIR, PAPER, WORKLOADS, OpResult, Scale

SETUP_REPS = 3

# name -> (unit, better); the order is the order BENCHMARK.json lists them.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "op_ms_p50": ("ms", "lower"),
    "throughput_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "success_rate": ("share", "higher"),
}

# Span names whose total time per unit is reported as "<name>.ms".
SPAN_MS = [
    "layers.conv2d_forward", "layers.conv2d_backward",
    "layers.maxpool2_forward", "layers.maxpool2_backward",
    "layers.tconv2_forward", "layers.tconv2_backward",
    "layers.activation", "layers.categorical_cross_entropy",
    "unet.forward", "unet.backward", "unet.load_checkpoint", "unet.save_checkpoint",
    "optim.adam_step",
    "data.generate_phantom", "data.write_pgm", "data.read_pgm",
    "metrics.confusion", "metrics.count_class_pixels",
    "tensor.argmax_channel",
]

# Spans that must record calls in the traced phase of each workload. A
# refactor that stops a wrapped name from being called fails the run.
EXPECTED_SPANS = {
    "train_small": [
        "train.run_training", "unet.forward", "unet.backward", "optim.adam_step",
        "layers.conv2d_forward", "layers.conv2d_backward", "layers.maxpool2_forward",
        "layers.maxpool2_backward", "layers.tconv2_forward", "layers.tconv2_backward",
        "layers.activation", "layers.categorical_cross_entropy", "unet.save_checkpoint",
        "tensor.argmax_channel", "metrics.confusion", "data.read_pgm",
    ],
    "predict_paper": [
        "cli.main", "unet.load_checkpoint", "data.read_pgm", "unet.forward",
        "layers.conv2d_forward", "layers.maxpool2_forward", "layers.tconv2_forward",
        "layers.activation", "tensor.argmax_channel", "data.write_pgm",
    ],
    "stack_volumetry": [
        "cli.main", "data.make_dataset", "data.generate_phantom", "data.write_pgm",
        "data.read_pgm", "metrics.confusion", "metrics.count_class_pixels",
        "metrics.write_report",
    ],
}


def unet_layer_names(config) -> list[str]:
    names = list(mv.unet.param_shapes(config))
    return names + [f"enc{i}.pool" for i in range(config.depth)]


def per_layer_names() -> list[str]:
    """Every per-layer metric, in BENCHMARK.json order. The U-Net layer
    names are those of the depth-4 network both network workloads run."""
    names = [f"{n}.ms" for n in SPAN_MS]
    names += ["layers.conv2d_forward.calls", "layers.conv2d_backward.calls",
              "layers.conv2d.gflop", "layers.conv2d.gflops_per_s",
              "layers.conv2d.bytes_computed", "layers.gemm_ceiling_gflops",
              "optim.adam_step.bytes_computed", "data.write_pgm.bytes", "data.read_pgm.bytes"]
    names += [f"{m}.self_ms" for m in MODULES] + ["bench.self_ms"]
    for layer in unet_layer_names(mv.unet.UNetConfig(depth=4)):
        names += [f"unet.{layer}.fwd_ms", f"unet.{layer}.bwd_ms"]
    names += ["trace.wall_ms", "trace.untraced_wall_ms", "trace.overhead_ms", "trace.overhead_pct",
              "train.step_ms_untraced", "train.step_ms_traced", "train.step_span_self_ms",
              "setup.wall_ms"]
    names += [f"setup.{m}.self_ms" for m in MODULES] + ["setup.bench.self_ms"]
    return names


PER_LAYER_UNITS = {"calls": "count", "gflop": "GFLOP", "gflops_per_s": "GFLOP/s",
                   "gemm_ceiling_gflops": "GFLOP/s", "bytes_computed": "bytes", "bytes": "bytes",
                   "overhead_pct": "%"}


def per_layer_unit(name: str) -> str:
    return PER_LAYER_UNITS.get(name.rsplit(".", 1)[-1], "ms")


# ---------------------------------------------------------------------------
# Environment


def blas_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(workload: str, seed: int, seconds: int, trace: int) -> dict:
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": blas_info(), "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
        "microvolumetry": mv.__version__,
    }


# ---------------------------------------------------------------------------
# Measurement


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else float("nan")


def iqr(values) -> float:
    return percentile(values, 75) - percentile(values, 25)


def median(values) -> float:
    """Median, or NaN when no op produced the value."""
    values = list(values)
    return statistics.median(values) if values else float("nan")


def closed_loop(workload, seconds: float) -> list[tuple[float, OpResult]]:
    """Run ops back to back. Another op starts only if it is expected to end
    within `seconds`, judged by the median op so far; at least one runs."""
    ops: list[tuple[float, OpResult]] = []
    start = time.perf_counter()
    while not ops or (time.perf_counter() - start
                      + statistics.median(d for d, _ in ops) <= seconds):
        t0 = time.perf_counter()
        try:
            result = workload.op()
        except Exception as exc:  # a failed op is counted, not fatal
            if not any(r.detail.get("error") for _, r in ops):
                traceback.print_exc(file=sys.stderr)
            result = OpResult(units=0, ok=False, detail={"error": repr(exc)})
        ops.append((time.perf_counter() - t0, result))
    return ops


def run_phase(workload, seconds: float, package, tracer: Tracer | None = None,
              clock: StepClock | None = None):
    patches = Patches()
    clock = clock or StepClock()
    try:
        if tracer is not None:
            tracer.install(package, patches)
        clock.install(package, patches)
        workload.clock = clock
        ops = closed_loop(workload, seconds)
    finally:
        patches.restore()
        workload.clock = None
    return ops, clock


def alternate(workload, seconds: float, package, tracer: Tracer):
    """One untraced op, then one traced op, over and over. Another pair
    starts only if the median pair so far would end within `seconds`; at
    least one pair runs."""
    untraced, traced = [], []
    untraced_clock, clock = StepClock(), StepClock()
    pairs: list[float] = []
    start = time.perf_counter()
    while not pairs or time.perf_counter() - start + statistics.median(pairs) <= seconds:
        t0 = time.perf_counter()
        untraced += run_phase(workload, 0, package, clock=untraced_clock)[0]
        traced += run_phase(workload, 0, package, tracer, clock)[0]
        pairs.append(time.perf_counter() - t0)
    return untraced, untraced_clock, traced, clock


def e2e_from_ops(workload, ops, clock: StepClock) -> tuple[dict, dict]:
    """Contract metrics plus the workload's own named report metrics.

    Throughput is the median over ops of work per op over op time, so one
    slow op moves it no more than it moves op_ms_p50. An op that raised
    carries no detail, so the report medians skip it.
    """
    units = sum(r.units for _, r in ops)
    failed = sum(not r.ok for _, r in ops)
    report: dict[str, tuple[float, str]] = {}
    if workload.name == "train_small":
        per_op = clock.steps_ms
        throughput = statistics.median(workload.samples_per_op / d for d, _ in ops)
        details = [r.detail for _, r in ops if "val_acc" in r.detail]
        report.update({
            "train_step_ms_p50": (percentile(per_op, 50), "ms"),
            "train_step_ms_p90": (percentile(per_op, 90), "ms"),
            "train_steps": (len(per_op), "count"),
            "train_samples_per_s": (throughput, "1/s"),
            "val_acc": (median(d["val_acc"] for d in details), "share"),
            "val_acc_golden_gap": (median(abs(d["val_acc"] - d["golden_val_acc"])
                                          for d in details if d["golden_val_acc"] is not None),
                                   "share"),
        })
    else:
        per_op = [d * 1e3 / max(r.units, 1) for d, r in ops]
        throughput = statistics.median(r.units / d for d, r in ops)
        if workload.name == "predict_paper":
            report.update({
                "predict_s_per_slice_p50": (percentile(per_op, 50) / 1e3, "s"),
                "predict_slices": (units, "count"),
                "predict_slices_per_s": (throughput, "1/s"),
                "mask_agreement": (median(r.detail["mask_agreement"] for _, r in ops
                                          if "mask_agreement" in r.detail), "share"),
            })
        else:
            report.update({
                "gen_slices_per_s": (median(
                    r.units / r.detail["gen_s"] for _, r in ops if "gen_s" in r.detail), "1/s"),
                "volumetry_slices_per_s": (median(
                    r.units / r.detail["score_s"] for _, r in ops if "score_s" in r.detail), "1/s"),
                "stack_passes": (len(ops), "count"),
                "volumetry_exact": (float(failed == 0), "bool"),
            })
    metrics = {
        "op_ms_p50": percentile(per_op, 50),
        "throughput_per_s": throughput,
        "peak_rss_mb": peak_rss_mb(),
        "success_rate": 1.0 - failed / len(ops),
    }
    report["peak_rss_mb"] = (metrics["peak_rss_mb"], "MB")
    report["error_rate"] = (failed / len(ops), "share")
    report["op_ms_p90"] = (percentile(per_op, 90), "ms")
    report["op_samples"] = (len(per_op), "count")
    return metrics, report


def per_layer_from_trace(workload, tracer: Tracer, ops, untraced_ops, clock, untraced_clock,
                         setup_tracer: Tracer, setup_wall: float, gemm_gflops: float) -> dict:
    units = sum(r.units for _, r in ops)
    wall = sum(d for d, _ in ops)
    untraced_units = sum(r.units for _, r in untraced_ops)
    untraced_wall = sum(d for d, _ in untraced_ops)
    agg = summarize(tracer.records, units)
    per, by_name, by_layer = agg["per"], agg["by_name"], agg["by_layer"]

    def total(name, key="s"):
        return by_name.get(name, {}).get(key, 0)

    missing = [n for n in EXPECTED_SPANS[workload.name] if not total(n, "calls")]
    config = workload.net_config() if hasattr(workload, "net_config") else None
    if config is not None:
        fwd_spans = {"conv": "layers.conv2d_forward", "tconv": "layers.tconv2_forward"}
        bwd_spans = {"conv": "layers.conv2d_backward", "tconv": "layers.tconv2_backward"}
        layers = [(n, k) for n, (k, _) in mv.unet.param_shapes(config).items()]
        layers += [(f"enc{i}.pool", "pool") for i in range(config.depth)]
        fwd_spans["pool"], bwd_spans["pool"] = "layers.maxpool2_forward", "layers.maxpool2_backward"
        spans = [fwd_spans] + ([bwd_spans] if workload.name == "train_small" else [])
        missing += [f"{s[kind]}[{layer}]" for layer, kind in layers for s in spans
                    if (s[kind], layer) not in by_layer]
    if missing:
        raise RuntimeError(f"traced run recorded no calls for: {', '.join(missing)}")

    m = {f"{n}.ms": total(n) * 1e3 * per for n in SPAN_MS}
    conv_s = total("layers.conv2d_forward") + total("layers.conv2d_backward")
    conv_flop = total("layers.conv2d_forward", "flop") + total("layers.conv2d_backward", "flop")
    m.update({
        "layers.conv2d_forward.calls": total("layers.conv2d_forward", "calls") * per,
        "layers.conv2d_backward.calls": total("layers.conv2d_backward", "calls") * per,
        "layers.conv2d.gflop": conv_flop / 1e9 * per,
        "layers.conv2d.gflops_per_s": conv_flop / conv_s / 1e9 if conv_s else 0.0,
        "layers.conv2d.bytes_computed": (total("layers.conv2d_forward", "bytes")
                                         + total("layers.conv2d_backward", "bytes")) * per,
        "layers.gemm_ceiling_gflops": gemm_gflops,
        "optim.adam_step.bytes_computed": total("optim.adam_step", "bytes") * per,
        "data.write_pgm.bytes": total("data.write_pgm", "bytes") * per,
        "data.read_pgm.bytes": total("data.read_pgm", "bytes") * per,
    })
    root_s = sum(r[3] - r[2] for r in tracer.records if r is not None and r[5] == -1)
    for mod, s in agg["module_self"].items():
        m[f"{mod}.self_ms"] = s * 1e3 * per
    m["bench.self_ms"] = (wall - root_s) * 1e3 * per
    for (span, layer), s in by_layer.items():
        suffix = "bwd_ms" if span.endswith("backward") else "fwd_ms"
        m[f"unet.{layer}.{suffix}"] = m.get(f"unet.{layer}.{suffix}", 0.0) + s * 1e3 * per
    traced_ms = wall * 1e3 * per
    untraced_ms = untraced_wall * 1e3 / max(untraced_units, 1)
    m.update({
        "trace.wall_ms": traced_ms,
        "trace.untraced_wall_ms": untraced_ms,
        "trace.overhead_ms": traced_ms - untraced_ms,
        "trace.overhead_pct": 100.0 * (traced_ms - untraced_ms) / untraced_ms,
    })
    if workload.name == "train_small":
        m["train.step_ms_untraced"] = percentile(untraced_clock.steps_ms, 50)
        m["train.step_ms_traced"] = percentile(clock.steps_ms, 50)
        m["train.step_span_self_ms"] = percentile(step_span_self(tracer.records, clock.windows), 50)
    setup = summarize(setup_tracer.records, 1)
    setup_root = sum(r[3] - r[2] for r in setup_tracer.records if r is not None and r[5] == -1)
    m["setup.wall_ms"] = setup_wall * 1e3
    for mod, s in setup["module_self"].items():
        m[f"setup.{mod}.self_ms"] = s * 1e3
    m["setup.bench.self_ms"] = (setup_wall - setup_root) * 1e3
    return {name: m.get(name, 0.0) for name in per_layer_names()}


def step_span_self(records, windows) -> list[float]:
    """Per training step, the sum of the self times of the spans inside the
    step, in ms. The training loop's own code between those spans is in no
    span, so it is left out here; the tracer books it to train.self_ms."""
    return [sum(r[4] for r in records if r is not None and r[2] >= start and r[3] <= end) * 1e3
            for start, end in windows]


def step_self_check(values: dict, untraced_steps, traced_steps) -> dict:
    """Do the self times of a step add up to its wall time within the
    tracing overhead? The span self sum S misses the untraced step wall U
    by the per-step overhead (traced step T minus U), less the loop's own
    time T - S. The check holds when |S - U| <= |T - U| + noise, that is
    when the time no span covers is at most twice the tracing overhead.
    U and T are medians of different steps, so machine noise moves their
    difference by a few ms; `noise` is the 95% half-width of a difference
    of two medians, 1.57 * IQR / sqrt(n) for each, combined in quadrature."""
    s, t, u = (values[f"train.step_{k}"] for k in ("span_self_ms", "ms_traced", "ms_untraced"))
    noise = 1.57 * float(np.hypot(*(iqr(steps) / np.sqrt(max(len(steps), 1))
                                    for steps in (untraced_steps, traced_steps))))
    return {
        "train_step_self_gap_ms": (s - u, "ms"),
        "train_step_overhead_ms": (t - u, "ms"),
        "train_step_noise_ms": (noise, "ms"),
        "train_step_self_within_overhead": (float(abs(s - u) <= abs(t - u) + noise), "bool"),
    }


def largest_conv_gemm(config, batch: int) -> tuple[int, int, int]:
    """(M, K, N) of the GEMM inside the conv layer with the most FLOPs,
    N capped the way conv2d_forward chunks its im2col columns."""
    best = None
    sizes = layer_sizes(config)
    for name, (kind, (cout, cin, k, _)) in mv.unet.param_shapes(config).items():
        if kind != "conv":
            continue
        size = sizes[name.split(".")[0]]
        flop = cout * cin * k * k * size * size
        if best is None or (flop, size) > best[0]:
            best = ((flop, size), cout, cin, k, size)
    _, m, cin, k, size = best
    rows = mv.layers._chunk_rows(batch, cin, k, size)
    return m, cin * k * k, batch * min(rows, size) * size


# ---------------------------------------------------------------------------


def run(workload_name: str, seed: int, seconds: float, trace: int, work_root: Path,
        scale: Scale = PAPER, golden_dir: Path = GOLDEN_DIR) -> dict:
    """One benchmark run; returns the contract result plus report and env."""
    workload = WORKLOADS[workload_name](work_root, seed, scale, golden_dir)
    env = environment(workload_name, seed, seconds, trace)
    try:
        if not trace:
            setup_times = []
            for _ in range(SETUP_REPS):
                t0 = time.perf_counter()
                workload.setup()
                setup_times.append(time.perf_counter() - t0)
            run_phase(workload, 0, mv)  # warm-up op
            ops, clock = run_phase(workload, seconds, mv)
            metrics, report = e2e_from_ops(workload, ops, clock)
            metrics["setup_s"] = statistics.median(setup_times)
            report["setup_s"] = (metrics["setup_s"], "s")
            out = {name: {"value": metrics[name], "unit": unit}
                   for name, (unit, _) in END_TO_END.items()}
        else:
            setup_tracer = Tracer()
            patches = Patches()
            try:
                setup_tracer.install(mv, patches)
                t0 = time.perf_counter()
                workload.setup()
                setup_wall = time.perf_counter() - t0
            finally:
                patches.restore()
            run_phase(workload, 0, mv)  # warm-up op
            tracer = Tracer()
            untraced_ops, untraced_clock, ops, clock = alternate(workload, seconds, mv, tracer)
            gemm = 0.0
            if hasattr(workload, "net_config"):
                batch = scale.train_batch if workload_name == "train_small" else 1
                gemm = gemm_probe(*largest_conv_gemm(workload.net_config(), batch))
            values = per_layer_from_trace(workload, tracer, ops, untraced_ops, clock,
                                          untraced_clock, setup_tracer, setup_wall, gemm)
            check = (step_self_check(values, untraced_clock.steps_ms, clock.steps_ms)
                     if workload_name == "train_small" else {})
            ops = untraced_ops + ops
            clock.windows = untraced_clock.windows + clock.windows
            _, report = e2e_from_ops(workload, ops, clock)
            report.update(check)
            out = {name: {"value": v, "unit": per_layer_unit(name)} for name, v in values.items()}
            trace_path = work_root / "results" / f"{workload_name}_seed{seed}_spans.jsonl"
            trace_path.parent.mkdir(parents=True, exist_ok=True)
            with open(trace_path, "w", encoding="utf-8") as fh:
                for rec in tracer.records:
                    fh.write(json.dumps(rec) + "\n")
    finally:
        workload.teardown()
    failed = sum(not r.ok for _, r in ops)
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": out}
    return {"result": result, "report": report, "env": env}
