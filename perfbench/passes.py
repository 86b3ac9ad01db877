"""One benchmark sample in a fresh interpreter.

    python3 perfbench/passes.py '<json spec>'

The spec names the workload, seed, mode and number of passes. Modes:

- ``time``: passes with nothing wrapped; only host time and memory.
- ``check``: one pass that also audits every SimReport (``audit_resources``)
  and totals the modelled ``sim.*`` statistics, discarding each report as
  soon as it is read.
- ``trace``: passes with per-layer tracing (tracing.py) plus the ``sim.*``
  totals, which must equal those of the check pass.

Every mode checks the CSV rows it wrote and hashes its artifacts. The
sample prints one JSON line on standard output.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback

from qnocsim import cli, engine, experiment

import tracing
from workloads import WORKLOADS, seed_overrides

TEXT_COLUMNS = ("workload", "strategy", "cr_mode")


def workload_call(name: str, seed: int, tiny: bool):
    """The public qnocsim call a pass makes: fn(out_dir) -> artifact paths."""
    workload = WORKLOADS[name]
    seeds = seed_overrides(name, seed)
    if name == "bundle":
        shipped = experiment.default_bundle

        def seeded_bundle():
            entries = shipped()[-4:] if tiny else shipped()
            return [(entry, _with_seeds(config, seeds)) for entry, config in entries]

        # run_default_bundle looks default_bundle up in its module globals.
        experiment.default_bundle = seeded_bundle
        return experiment.run_default_bundle
    config = experiment.merge_config({**workload.config, **seeds, **(workload.tiny if tiny else {})})
    return lambda out_dir: [p for p in experiment.run_experiment(config, out_dir, name) if p]


def _with_seeds(config: dict[str, str], seeds: dict[str, str]) -> dict[str, str]:
    seeded = dict(config, **seeds)
    if "sweep.seeds" not in config:
        del seeded["sweep.seeds"]  # one run per strategy, seeded by sim.seed
    return seeded


def run_failed(report, cfg) -> bool:
    """A run fails the output check if its resource trace breaks the link or
    communication-qubit limits."""
    return bool(engine.audit_resources(report, cfg))


def count_good_rows(csv_paths) -> tuple[int, int]:
    """(rows whose every numeric value is finite, rows read)."""
    good = total = 0
    for path in csv_paths:
        with open(path, encoding="utf-8", newline="") as handle:
            for row in csv.DictReader(handle):
                total += 1
                try:
                    finite = all(math.isfinite(float(v)) for k, v in row.items() if k not in TEXT_COLUMNS)
                except (TypeError, ValueError):
                    finite = False
                good += finite
    return good, total


def artifact_digest(paths) -> str:
    digest = hashlib.sha256()
    for path in sorted(paths, key=os.path.basename):
        digest.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


class SimTotals:
    """Modelled statistics summed over the runs of a pass, in simulated time units."""

    def __init__(self):
        self.hops = self.requests = self.expanded_depth = 0
        self.comm_delay_critical = self.resource_wait = 0.0
        self.busy_link_time = self.link_time = 0.0

    def add(self, report, cfg):
        self.hops += len(report.hops)
        self.requests += report.inter_core_requests
        self.comm_delay_critical += report.comm_delay_critical
        self.expanded_depth += report.expanded_depth
        issue = {r.gate_id: r.issue for r in report.requests}
        finish = {(h.gate_id, h.chain, h.hop_index): h.finish for h in report.hops}
        for hop in report.hops:
            # A hop is ready when its request is issued or, for sequential
            # hops, when the previous hop of its chain finishes.
            ready = issue[hop.gate_id]
            if hop.hop_index and not cfg.pipeline_hops:
                ready = finish[(hop.gate_id, hop.chain, hop.hop_index - 1)]
            self.resource_wait += hop.start - ready
            self.busy_link_time += hop.finish - hop.start
        self.link_time += len(cfg.topology.bsm_links()) * report.total_delay

    def metrics(self) -> dict[str, float]:
        return {
            "sim.hops": self.hops,
            "sim.requests": self.requests,
            "sim.comm_delay_critical": self.comm_delay_critical,
            "sim.expanded_depth": self.expanded_depth,
            "sim.resource_wait": self.resource_wait,
            "sim.link_util": self.busy_link_time / self.link_time if self.link_time else 0.0,
        }


def observe_runs(on_report):
    """Route every engine run of run_experiment through on_report(report, cfg)."""
    run = experiment.run

    def observed(circuit, cfg):
        report = run(circuit, cfg)
        on_report(report, cfg)
        return report

    experiment.run = observed


def main(spec: dict) -> dict:
    cli.build_parser()
    setup_s = time.monotonic() - spec["spawned_at"]
    name, mode, passes = spec["workload"], spec["mode"], spec["passes"]
    call = workload_call(name, spec["seed"], spec["tiny"])

    sims: list[SimTotals] = []
    audit_failed = 0
    tracer = tracing.Tracer() if mode == "trace" else None
    if mode in ("check", "trace"):
        def on_report(report, cfg):
            nonlocal audit_failed
            sims[-1].add(report, cfg)
            if mode == "check" and run_failed(report, cfg):
                audit_failed += 1

        # Installed before tracing, so the statistics get their own span
        # inside engine.run and stay out of every layer's self time.
        observe_runs(tracer.timed("bench.sim_totals", on_report) if tracer else on_report)
    if tracer:
        tracing.install(tracer)

    walls, digests, good_rows, errors = [], [], 0, []
    for _ in range(passes):
        sims.append(SimTotals())
        out_dir = tempfile.mkdtemp(prefix="pass-", dir=spec["work_dir"])
        try:
            start = time.perf_counter()
            try:
                paths = call(out_dir)
            except Exception:  # a failing run is counted, not fatal to the sample
                errors.append(traceback.format_exc(limit=3))
                paths = []
            walls.append(time.perf_counter() - start)
            good_rows += count_good_rows([p for p in paths if p.endswith(".csv")])[0]
            digests.append(artifact_digest(paths))
        finally:
            shutil.rmtree(out_dir)

    result = {
        "setup_s": setup_s,
        "wall_s": walls,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "good_rows": max(0, good_rows - audit_failed),
        "digests": digests,
        "errors": errors,
    }
    if mode in ("check", "trace"):
        result["sim"] = [totals.metrics() for totals in sims]
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, passes)
        with open(os.path.join(spec["work_dir"], f"spans-{name}.json"), "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)
    return result


def layer_metrics(tracer, passes: int) -> dict[str, float]:
    """Per-pass per-layer metrics from a traced sample."""
    total, own, calls = tracer.totals()
    counts = tracer.counts
    hops = counts.get("protocol.attempt_calls", 0)
    attempts = counts.get("protocol.attempts", 0)
    values = {
        "engine.run_s": total.get("engine.run", 0.0) - total.get("bench.sim_totals", 0.0),
        "engine.self_s": own.get("engine.run", 0.0),
        "engine.run_calls": calls.get("engine.run", 0),
        "strategy.plan_s": total.get("strategy.plan", 0.0),
        "strategy.plan_calls": calls.get("strategy.plan", 0),
        "protocol.attempt_calls": hops,
        "protocol.attempts": attempts,
        "protocol.request_stream_s": total.get("protocol.request_stream", 0.0),
        "protocol.request_stream_calls": calls.get("protocol.request_stream", 0),
        "circuit.layerize_s": total.get("circuit.layerize", 0.0),
        "circuit.from_ops_s": total.get("circuit.from_ops", 0.0),
        "circuit.depth_s": total.get("circuit.depth", 0.0),
        "circuit.gates_built": counts.get("circuit.gates_built", 0),
        "benchgen.gen_s": total.get("benchgen.gen", 0.0),
        "benchgen.gates_generated": counts.get("benchgen.gates_generated", 0),
        "placement.relocate_calls": counts.get("placement.relocate_calls", 0),
        "placement.congestion_events": counts.get("placement.congestion_events", 0),
        "experiment.iter_points_s": total.get("experiment.iter_points", 0.0),
        "experiment.write_s": own.get("experiment.run_experiment", 0.0),
        "experiment.rows": calls.get("engine.run", 0),
    }
    for metric in ("topology.coord_of_calls", "topology.hop_distance_calls", "topology.bsm_link_calls",
                   "topology.xy_route_calls", "circuit.gate_by_id_calls"):
        values[metric] = counts.get(metric, 0)
    values = {k: v / passes for k, v in values.items()}
    values["protocol.herald_ratio"] = hops / attempts if attempts else 0.0
    return values


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
