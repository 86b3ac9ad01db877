"""Experiment orchestration: configs, sweeps, CSV/JSON artifacts, plot data.

Configuration is a flat key-value text format with dotted keys::

    kind = sweep
    workload = synthetic
    mesh.width = 4
    timing.t_epr = 10
    sim.strategy = both
    sweep.requests = 1..8
    sweep.seeds = 1,2,3

``#`` starts a comment. Command-line flags override file values. Every
number written to an artifact comes straight out of the engine or the
generators; this module only arranges runs and formats rows.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

from .benchgen import CrMode, SynthSpec, gen_cuccaro, gen_mcmt, gen_qft, gen_quantum_volume, gen_synthetic
from .circuit import Circuit, parse_circuit
from .engine import SimConfig, SimReport, run
from .protocol import TimingConfig
from .topology import MeshTopology

CSV_COLUMNS = [
    "workload",
    "strategy",
    "cr_mode",
    "num_requests",
    "seed",
    "comm_delay_sum",
    "comm_delay_critical",
    "total_delay",
    "original_depth",
    "expanded_depth",
    "congestion_events",
    "max_core_occupancy",
]

BENCHMARK_WORKLOADS = ("qft", "cuccaro", "mcmt", "qv")

DEFAULTS = {
    "kind": "compare",
    "workload": "synthetic",
    "mesh.width": "4",
    "mesh.height": "4",
    "sim.n_per_core": "2",
    "sim.m_per_core": "2",
    "sim.strategy": "both",
    "sim.seed": "1",
    "sim.pipeline_hops": "false",
    "timing.t_epr": "10",
    "timing.t_meas": "2",
    "timing.t_classical": "1",
    "timing.t_correct": "1",
    "timing.t_gate": "2",
    "timing.p_bsm": "1",
    "qft.qubits": "32",
    "cuccaro.bits": "15",
    "mcmt.controls": "12",
    "mcmt.targets": "9",
    "qv.qubits": "32",
    "qv.layers": "5",
    "qv.seed": "7",
    "out.format": "both",
}


# Read only by the synthetic workload, which fills in these defaults; any
# other workload rejects them when set.
SYNTHETIC_DEFAULTS = {
    "synthetic.cr": "fixed:3",
    "synthetic.requests_per_layer": "1",
}

# Keys read only when present, on top of the ones DEFAULTS always supplies.
KNOWN_KEYS = frozenset(DEFAULTS) | frozenset(SYNTHETIC_DEFAULTS) | {
    "sweep.requests",
    "sweep.seeds",
    "sweep.cr",
    "synthetic.requests",
    "synthetic.depth",
    "timing.max_attempts",
}


class ConfigError(ValueError):
    """Bad experiment configuration, with file and line where known."""


def parse_config(text: str, source: str = "<config>") -> dict[str, str]:
    values: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{source}:{line_no}: expected key = value, got {raw.strip()!r}")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"{source}:{line_no}: empty key or value")
        if key not in KNOWN_KEYS:
            raise ConfigError(f"{source}:{line_no}: {_unknown_key_message(key)}")
        values[key] = value
    return values


def load_config(path: str) -> dict[str, str]:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read(), source=path)


def merge_config(*layers: dict[str, str]) -> dict[str, str]:
    """DEFAULTS overridden by each layer in turn; an unknown key is an error."""
    merged = dict(DEFAULTS)
    for layer in layers:
        for key in layer:
            if key not in KNOWN_KEYS:
                raise ConfigError(_unknown_key_message(key))
        merged.update(layer)
    return merged


def _unknown_key_message(key: str) -> str:
    import difflib  # only on this error path, so that start-up stays lean

    close = difflib.get_close_matches(key, sorted(KNOWN_KEYS), n=1)
    hint = f"; did you mean {close[0]!r}?" if close else ""
    return f"unknown config key {key!r}{hint}"


def _get_int(config, key):
    try:
        return int(config[key])
    except ValueError:
        raise ConfigError(f"{key}: expected integer, got {config[key]!r}") from None


def _get_float(config, key):
    try:
        return float(config[key])
    except ValueError:
        raise ConfigError(f"{key}: expected number, got {config[key]!r}") from None


def _get_bool(config, key):
    value = config[key].lower()
    if value in ("true", "1", "yes"):
        return True
    if value in ("false", "0", "no"):
        return False
    raise ConfigError(f"{key}: expected true or false, got {config[key]!r}")


def _int_list(token: str, key: str) -> list[int]:
    """Parse ``1,2,3`` or an inclusive range ``1..32``; neither may be empty."""
    token = token.strip()
    if ".." in token:
        lo, _, hi = token.partition("..")
        try:
            values = list(range(int(lo), int(hi) + 1))
        except ValueError:
            raise ConfigError(f"{key}: bad range {token!r}") from None
        if not values:
            raise ConfigError(f"{key}: empty range {token!r}")
        return values
    try:
        values = [int(part) for part in token.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"{key}: bad integer list {token!r}") from None
    if not values:
        raise ConfigError(f"{key}: empty list {token!r}")
    return values


def timing_from_config(config: dict[str, str]) -> TimingConfig:
    max_attempts = None
    if "timing.max_attempts" in config:
        max_attempts = _get_int(config, "timing.max_attempts")
    return TimingConfig(
        t_epr=_get_float(config, "timing.t_epr"),
        t_meas=_get_float(config, "timing.t_meas"),
        t_classical=_get_float(config, "timing.t_classical"),
        t_correct=_get_float(config, "timing.t_correct"),
        t_gate=_get_float(config, "timing.t_gate"),
        p_bsm=_get_float(config, "timing.p_bsm"),
        max_attempts=max_attempts,
    )


def sim_config_from(config: dict[str, str], topology: MeshTopology, strategy: str, seed: int) -> SimConfig:
    return SimConfig(
        topology=topology,
        n_per_core=_get_int(config, "sim.n_per_core"),
        m_per_core=_get_int(config, "sim.m_per_core"),
        timing=timing_from_config(config),
        strategy=strategy,
        seed=seed,
        pipeline_hops=_get_bool(config, "sim.pipeline_hops"),
    )


@dataclass(frozen=True)
class RunPoint:
    """One engine run, i.e. one CSV row."""

    workload: str
    cr_mode: str
    seed: int
    strategy: str
    circuit: Circuit
    cfg: SimConfig


def _strategies(config) -> list[str]:
    token = config["sim.strategy"]
    if token == "both":
        return ["hh", "twt"]
    if token in ("hh", "twt"):
        return [token]
    raise ConfigError(f"sim.strategy: expected hh, twt or both, got {token!r}")


def _seeds(config) -> list[int]:
    if "sweep.seeds" in config:
        return _int_list(config["sweep.seeds"], "sweep.seeds")
    return [_get_int(config, "sim.seed")]


def iter_points(config: dict[str, str]) -> list[RunPoint]:
    """Expand a configuration into a deterministic, ordered list of runs."""
    workload = config["workload"]
    strategies = _strategies(config)
    seeds = _seeds(config)
    # One mesh for every point: each instance carries its own lookup tables.
    topology = MeshTopology(_get_int(config, "mesh.width"), _get_int(config, "mesh.height"))
    points: list[RunPoint] = []

    if workload == "synthetic":
        config = {**SYNTHETIC_DEFAULTS, **config}
        qpc = _get_int(config, "sim.n_per_core")
        cr_tokens = (
            [t.strip() for t in config["sweep.cr"].split(",") if t.strip()]
            if "sweep.cr" in config
            else [config["synthetic.cr"]]
        )
        if not cr_tokens:
            raise ConfigError(f"sweep.cr: empty list {config['sweep.cr']!r}")
        if "sweep.requests" in config:
            request_counts = _int_list(config["sweep.requests"], "sweep.requests")
        else:
            request_counts = [_get_int(config, "synthetic.requests")] if "synthetic.requests" in config else []
        if not request_counts:
            raise ConfigError("synthetic workload needs sweep.requests or synthetic.requests")
        for token in cr_tokens:
            cr_mode = CrMode.parse(token)
            for count in request_counts:
                depth_k, rpl = _shape_for(config, count)
                for seed in seeds:
                    spec = SynthSpec(target_depth=depth_k, requests_per_layer=rpl, cr_mode=cr_mode, seed=seed)
                    circuit = gen_synthetic(spec, topology, qpc)
                    for strategy in strategies:
                        points.append(
                            RunPoint(
                                workload=f"synthetic_d{depth_k}_rpl{rpl}",
                                cr_mode=str(cr_mode),
                                seed=seed,
                                strategy=strategy,
                                circuit=circuit,
                                cfg=sim_config_from(config, topology, strategy, seed),
                            )
                        )
        return points

    circuit, label = _named_workload(config, workload)
    for key in ("sweep.requests", "sweep.cr", "synthetic.requests", "synthetic.depth", *SYNTHETIC_DEFAULTS):
        if key in config:
            raise ConfigError(f"{key}: only the synthetic workload reads it, not {workload!r}")
    for seed in seeds:
        for strategy in strategies:
            points.append(
                RunPoint(
                    workload=label,
                    cr_mode="-",
                    seed=seed,
                    strategy=strategy,
                    circuit=circuit,
                    cfg=sim_config_from(config, topology, strategy, seed),
                )
            )
    return points


def _shape_for(config, request_count: int) -> tuple[int, int]:
    """(target_depth, requests_per_layer) realizing a total request count."""
    if "synthetic.depth" in config:
        depth_k = _get_int(config, "synthetic.depth")
        if request_count % depth_k:
            raise ConfigError(f"request count {request_count} not a multiple of synthetic.depth {depth_k}")
        return depth_k, request_count // depth_k
    rpl = _get_int(config, "synthetic.requests_per_layer")
    if request_count % rpl:
        raise ConfigError(f"request count {request_count} not a multiple of requests_per_layer {rpl}")
    return request_count // rpl, rpl


def _named_workload(config, workload: str) -> tuple[Circuit, str]:
    if workload == "qft":
        n = _get_int(config, "qft.qubits")
        return gen_qft(n), f"qft{n}"
    if workload == "cuccaro":
        bits = _get_int(config, "cuccaro.bits")
        return gen_cuccaro(bits), f"cuccaro{bits}"
    if workload == "mcmt":
        controls = _get_int(config, "mcmt.controls")
        targets = _get_int(config, "mcmt.targets")
        return gen_mcmt(controls, targets), f"mcmt{controls}x{targets}"
    if workload == "qv":
        n = _get_int(config, "qv.qubits")
        layers = _get_int(config, "qv.layers")
        return gen_quantum_volume(n, layers, _get_int(config, "qv.seed")), f"qv{n}x{layers}"
    if os.path.exists(workload):
        with open(workload, "r", encoding="utf-8") as handle:
            circuit = parse_circuit(handle.read())
        label = os.path.splitext(os.path.basename(workload))[0]
        return circuit, label
    raise ConfigError(f"unknown workload {workload!r} (not a generator name or circuit file)")


def _fmt(value) -> str:
    if isinstance(value, float):
        return str(int(value)) if value.is_integer() else repr(value)
    return str(value)


def row_for(point: RunPoint, report: SimReport) -> dict[str, object]:
    return {
        "workload": point.workload,
        "strategy": point.strategy,
        "cr_mode": point.cr_mode,
        "num_requests": report.inter_core_requests,
        "seed": point.seed,
        "comm_delay_sum": report.comm_delay_sum,
        "comm_delay_critical": report.comm_delay_critical,
        "total_delay": report.total_delay,
        "original_depth": report.original_depth,
        "expanded_depth": report.expanded_depth,
        "congestion_events": report.congestion_events,
        "max_core_occupancy": report.max_core_occupancy,
    }


def run_experiment(
    config: dict[str, str],
    out_dir: str,
    name: str = "results",
    collect: list | None = None,
) -> tuple[str | None, str | None]:
    """Run every point of a configuration, writing CSV and/or JSON artifacts.

    Rows are written and flushed in spec order as runs finish, so a failing
    point leaves the completed prefix on disk. Pass a list as ``collect`` to
    also receive (point, report) pairs in row order.

    Returns the written (csv_path, json_path).
    """
    points = iter_points(config)
    fmt = config["out.format"]
    if fmt not in ("csv", "json", "both"):
        raise ConfigError(f"out.format: expected csv, json or both, got {fmt!r}")
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{name}.csv") if fmt in ("csv", "both") else None
    json_path = os.path.join(out_dir, f"{name}.json") if fmt in ("json", "both") else None

    rows: list[dict] = []
    csv_file = open(csv_path, "w", encoding="utf-8", newline="") if csv_path else None
    try:
        if csv_file:
            csv_file.write(",".join(CSV_COLUMNS) + "\n")
            csv_file.flush()
        for point in points:
            report = run(point.circuit, point.cfg)
            row = row_for(point, report)
            rows.append(row)
            if collect is not None:
                collect.append((point, report))
            if csv_file:
                csv_file.write(",".join(_fmt(row[c]) for c in CSV_COLUMNS) + "\n")
                csv_file.flush()
    finally:
        if csv_file:
            csv_file.close()

    if json_path:
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(summarize(rows), handle, indent=2, sort_keys=True)
            handle.write("\n")
    return csv_path, json_path


def summarize(rows: list[dict]) -> dict:
    """Per-strategy means plus hh-vs-twt reduction percentages over paired rows."""
    summary: dict = {"rows": len(rows), "per_strategy": {}, "reduction_pct": {}}
    for strategy in ("hh", "twt"):
        group = [r for r in rows if r["strategy"] == strategy]
        if not group:
            continue
        summary["per_strategy"][strategy] = {
            "runs": len(group),
            "comm_delay_sum_mean": _mean([r["comm_delay_sum"] for r in group]),
            "comm_delay_critical_mean": _mean([r["comm_delay_critical"] for r in group]),
            "total_delay_mean": _mean([r["total_delay"] for r in group]),
            "expanded_depth_mean": _mean([r["expanded_depth"] for r in group]),
        }
    for metric in ("comm_delay_sum", "comm_delay_critical", "expanded_depth"):
        reductions = paired_reductions(rows, metric)
        if reductions:
            summary["reduction_pct"][metric] = 100.0 * _mean(reductions)
    return summary


def paired_reductions(rows: list[dict], metric: str) -> list[float]:
    """(hh - twt)/hh per run pair.

    Pairs are matched positionally within a (workload, cr_mode, seed) group:
    both strategies simulate the same circuit, but run-dependent columns such
    as num_requests may legitimately differ between them.
    """
    def key(row):
        return (row["workload"], row["cr_mode"], row["seed"])

    grouped: dict[tuple, dict[str, list]] = {}
    for row in rows:
        grouped.setdefault(key(row), {}).setdefault(row["strategy"], []).append(row)
    out = []
    for group_key in sorted(grouped):
        group = grouped[group_key]
        for hh_row, twt_row in zip(group.get("hh", []), group.get("twt", [])):
            base = hh_row[metric]
            out.append(0.0 if base == 0 else (base - twt_row[metric]) / base)
    return out


def _mean(values):
    # fsum is correctly rounded on every Python version; sum() is compensated
    # only from 3.12 on, so the JSON bytes would depend on the interpreter.
    return math.fsum(values) / len(values)


def default_bundle() -> list[tuple[str, dict[str, str]]]:
    """The shipped experiment set: synthetic sweeps at circuit depths 5 and
    10 over fixed radii 1, 3 and 6 plus a random radius, and the four real
    benchmarks, all under both strategies."""
    bundle = []
    for depth_k in (5, 10):
        base = {
            "kind": "sweep",
            "workload": "synthetic",
            "sim.n_per_core": "8",
            "synthetic.depth": str(depth_k),
            "sweep.seeds": "1,2,3",
        }
        near = dict(base)
        near["sweep.cr"] = "fixed:1,fixed:3,random:6"
        near["sweep.requests"] = ",".join(str(depth_k * rpl) for rpl in (1, 2, 3, 4))
        bundle.append((f"synthetic_depth{depth_k}", merge_config(near)))
        far = dict(base)
        far["sweep.cr"] = "fixed:6"
        far["sweep.requests"] = ",".join(str(depth_k * rpl) for rpl in (1, 2))
        bundle.append((f"synthetic_depth{depth_k}_far", merge_config(far)))
    for workload in BENCHMARK_WORKLOADS:
        bundle.append((f"bench_{workload}", merge_config({"kind": "compare", "workload": workload})))
    return bundle


def run_default_bundle(out_dir: str, collect: list | None = None) -> list[str]:
    """Run every bundle entry; returns the written artifact paths."""
    paths = []
    for name, config in default_bundle():
        csv_path, json_path = run_experiment(config, out_dir, name, collect=collect)
        paths.extend(p for p in (csv_path, json_path) if p)
    return paths


def emit_plot_data(csv_path: str, out_dir: str) -> list[str]:
    """Reshape a results CSV into tidy per-figure files.

    delay_vs_requests.csv : series 'strategy cr_mode' x num_requests, mean
    communication delay (critical path) across seeds, synthetic rows only.
    benchmark_delay.csv   : per named benchmark and strategy.
    benchmark_depth.csv   : original / hh / twt depth bars per benchmark.
    """
    import csv as csv_mod

    with open(csv_path, "r", encoding="utf-8", newline="") as handle:
        reader = csv_mod.DictReader(handle)
        columns = reader.fieldnames or []
        missing = [c for c in CSV_COLUMNS if c not in columns]
        if missing:
            raise ValueError(f"{csv_path}: missing columns {missing}")
        rows = list(reader)

    os.makedirs(out_dir, exist_ok=True)
    written = []

    synthetic = [r for r in rows if r["workload"].startswith("synthetic")]
    benches = [r for r in rows if not r["workload"].startswith("synthetic")]

    series: dict[tuple[str, str, str], dict[int, list[float]]] = {}
    for row in synthetic:
        key = (row["workload"], row["strategy"], row["cr_mode"])
        series.setdefault(key, {}).setdefault(int(row["num_requests"]), []).append(
            float(row["comm_delay_critical"])
        )
    path = os.path.join(out_dir, "delay_vs_requests.csv")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("workload,series,num_requests,comm_delay\n")
        for (workload, strategy, cr_mode) in sorted(series):
            by_x = series[(workload, strategy, cr_mode)]
            for x in sorted(by_x):
                handle.write(f"{workload},{strategy} {cr_mode},{x},{_fmt(_mean(by_x[x]))}\n")
    written.append(path)

    delay: dict[tuple[str, str], list[float]] = {}
    depth_bars: dict[str, dict[str, list[float]]] = {}
    for row in benches:
        delay.setdefault((row["workload"], row["strategy"]), []).append(float(row["comm_delay_critical"]))
        bars = depth_bars.setdefault(row["workload"], {})
        bars.setdefault("original", []).append(float(row["original_depth"]))
        bars.setdefault(row["strategy"], []).append(float(row["expanded_depth"]))

    path = os.path.join(out_dir, "benchmark_delay.csv")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("benchmark,strategy,comm_delay\n")
        for (workload, strategy) in sorted(delay):
            handle.write(f"{workload},{strategy},{_fmt(_mean(delay[(workload, strategy)]))}\n")
    written.append(path)

    path = os.path.join(out_dir, "benchmark_depth.csv")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("benchmark,bar,depth\n")
        for workload in sorted(depth_bars):
            for bar in ("original", "hh", "twt"):
                if bar in depth_bars[workload]:
                    handle.write(f"{workload},{bar},{_fmt(_mean(depth_bars[workload][bar]))}\n")
    written.append(path)
    return written
