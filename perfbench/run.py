"""Host-time benchmark for qnocsim.

    python3 perfbench/run.py --workload bundle --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout, drives qnocsim through its public entry
points (``experiment.run_default_bundle`` and ``experiment.run_experiment``,
the calls the CLI makes) and reports host time, never simulated time, for
the end-to-end metrics. Every sample is a fresh single-threaded interpreter
(passes.py), one at a time:

1. a check sample: one pass that audits every run and totals the modelled
   ``sim.*`` statistics;
2. timed samples, untraced, until ``--seconds`` have passed (at least three);
   with ``--trace 1`` each is followed by a traced sample.

With ``--trace 0`` the metrics are BENCHMARK.json's ``end_to_end`` ones, with
``--trace 1`` its ``per_layer`` ones. A run (one CSV row) fails if it
raises, breaks ``audit_resources`` or writes a non-finite value, and a pass
fails whole if its artifacts differ from the check pass's. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"  # pass artifacts (removed after each pass) and the last span dump
MIN_SAMPLES = 3
DEADLINE_S = 165.0  # a run must end within 180 s


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1, help="derives every seed the workload uses")
    parser.add_argument("--seconds", type=float, default=20.0, help="how long to take timed samples")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the benchmark's own tests")
    return parser.parse_args(argv)


class Sampler:
    """Starts the samples of one benchmark run, one process at a time."""

    def __init__(self, args):
        self.args = args
        self.workload = WORKLOADS[args.workload]
        self.started = time.monotonic()
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))

    def passes(self, mode: str) -> int:
        return 1 if mode == "check" or self.args.tiny else self.workload.passes_per_sample

    def rows(self) -> int:
        return self.workload.tiny_rows if self.args.tiny else self.workload.rows

    def time_left(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def sample(self, mode: str) -> dict:
        spec = {
            "workload": self.args.workload, "seed": self.args.seed, "tiny": self.args.tiny,
            "mode": mode, "passes": self.passes(mode), "work_dir": str(WORK),
        }
        spec["spawned_at"] = time.monotonic()
        try:
            done = subprocess.run(
                [sys.executable, str(HERE / "passes.py"), json.dumps(spec)],
                env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=max(1.0, self.time_left()),
            )
        except subprocess.TimeoutExpired:
            return _broken(mode, "timed out")
        if done.returncode != 0:
            return _broken(mode, done.stderr.strip()[-2000:])
        result = json.loads(done.stdout.strip().splitlines()[-1])
        result["mode"] = mode
        return result


def _broken(mode: str, why: str) -> dict:
    return {"mode": mode, "wall_s": [], "good_rows": 0, "digests": [], "errors": [why]}


def pass_wall(sample: dict) -> float:
    return sum(sample["wall_s"]) / len(sample["wall_s"])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qnocsim" / "__init__.py").is_file():
        print(f"error: no qnocsim sources at {SRC}; run from the root of a qnocsim checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    WORK.mkdir(exist_ok=True)
    sampler = Sampler(args)

    check = sampler.sample("check")
    timed, traced = [], []
    start = time.monotonic()
    while len(timed) < MIN_SAMPLES or time.monotonic() - start < args.seconds:
        timed.append(sampler.sample("time"))
        if args.trace:
            traced.append(sampler.sample("trace"))
        if sampler.time_left() < 2 * (time.monotonic() - start) / len(timed):
            break
    samples = [check, *timed, *traced]

    # Output checks.
    rows = sampler.rows()
    attempted = sum(rows * sampler.passes(s["mode"]) for s in samples)
    failed = attempted - sum(s["good_rows"] for s in samples)
    reference = check["digests"][0] if check["digests"] else None
    failed += rows * sum(d != reference for s in samples for d in s["digests"])
    failed = min(failed, attempted)
    problems = [f"{s['mode']} sample: {e}" for s in samples for e in s["errors"]]
    sim = check["sim"][0] if "sim" in check else {}
    if any(totals != sim for s in traced for totals in s.get("sim", [{}])):
        problems.append("sim.* statistics differ between traced and untraced passes")
    walls = [pass_wall(s) for s in timed if s["wall_s"]]
    complete = bool(walls and sim) and (not args.trace or any("layers" in s for s in traced))
    if not complete:
        problems.append("no complete sample")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} tiny={args.tiny} "
          f"samples={len(timed)} passes_per_sample={sampler.passes('time')}")
    print(f"failed_frac {failed / attempted:.4g} ({failed} of {attempted} runs)")
    print(f"artifacts sha256 {reference}")
    if not complete:
        print("\n".join(f"problem: {p}" for p in problems))
        print(json.dumps({"correct": False, "attempted": attempted, "failed": attempted, "metrics": {}}))
        return 0

    if args.trace:
        wanted = spec["per_layer"]
        values = layer_values(traced, problems)
        values.update(sim)
        traced_walls = [pass_wall(s) for s in traced if s["wall_s"]]
        values["trace.overhead"] = statistics.median(traced_walls) / statistics.median(walls)
        print("median self-time shares of a traced pass: " + ", ".join(
            f"{group} {share:.1%}" for group, share in layer_shares(traced).items()))
    else:
        wanted = spec["end_to_end"]
        values = {
            "wall_s": statistics.median(walls),
            "hops_per_s": sim["sim.hops"] / statistics.median(walls),
            "peak_rss_mib": statistics.median(s["peak_rss_mib"] for s in timed if s["wall_s"]),
            "setup_s": statistics.median(s["setup_s"] for s in (check, *timed) if "setup_s" in s),
        }
        q1, _, q3 = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
        print(f"wall_s quartiles q1={q1:.6g} q3={q3:.6g} n={len(walls)}")

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:<14.6g} {metric['unit']}")
    for problem in problems:
        print(f"problem: {problem}")
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def layer_values(traced, problems) -> dict[str, float]:
    """Medians of the traced samples' per-layer metrics; counts must repeat."""
    complete = [s["layers"] for s in traced if "layers" in s]
    values = {}
    for name in complete[0]:
        series = [layers[name] for layers in complete]
        values[name] = statistics.median(series)
        if not name.endswith("_s") and len(set(series)) > 1:
            problems.append(f"{name} differs between traced samples: {sorted(set(series))}")
    return values


def layer_shares(traced) -> dict[str, float]:
    """Median over traced samples of each layer group's self-time share of the pass."""
    shares: dict[str, list[float]] = {}
    for sample in traced:
        if "layers" not in sample:
            continue
        v, wall = sample["layers"], pass_wall(sample)
        groups = {
            "engine.self": v["engine.self_s"],
            "circuit": v["circuit.layerize_s"] + v["circuit.from_ops_s"] + v["circuit.depth_s"],
            "benchgen": v["benchgen.gen_s"],
            "strategy.plan": v["strategy.plan_s"],
            "protocol.request_stream": v["protocol.request_stream_s"],
            "experiment.iter_points_self": v["experiment.iter_points_s"] - v["benchgen.gen_s"],
            "experiment.write": v["experiment.write_s"],
        }
        groups["other"] = wall - sum(groups.values())
        for group, seconds in groups.items():
            shares.setdefault(group, []).append(seconds / wall)
    return {group: statistics.median(series) for group, series in shares.items()}


if __name__ == "__main__":
    sys.exit(main())
