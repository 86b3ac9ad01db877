"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines alongside the pytest output.
"""

import time
from pathlib import Path

import pytest

from oracles import dag_depth_oracle, expanded_by_program_order
from qnocsim import experiment
from qnocsim.benchgen import CrMode, SynthSpec, gen_synthetic
from qnocsim.circuit import Circuit
from qnocsim.engine import SimConfig, audit_resources, run
from qnocsim.experiment import default_bundle, run_experiment
from qnocsim.protocol import TimingConfig, chain_attempts, request_stream
from qnocsim.strategy import plan_twt
from qnocsim.topology import MeshTopology
from test_golden import assert_same_files

MESH = MeshTopology(4, 4)
HOP = 14.0


def _cfg(strategy, qpc, seed=0):
    return SimConfig(topology=MESH, n_per_core=qpc, m_per_core=2, strategy=strategy, seed=seed)


def _single_request_latency(src_core, dst_core, strategy):
    circuit = Circuit.from_ops(16, [("cx", (src_core, dst_core))])
    report = run(circuit, _cfg(strategy, qpc=1))
    assert report.inter_core_requests == 1
    return report


def _serialized_sweep(radius, request_counts, seeds, qpc):
    """comm delays of one-request-per-layer workloads at a fixed radius."""
    rows = []
    for seed in seeds:
        for count in request_counts:
            spec = SynthSpec(target_depth=count, requests_per_layer=1, cr_mode=CrMode("fixed", radius), seed=seed)
            circuit = gen_synthetic(spec, MESH, qpc)
            hh = run(circuit, _cfg("hh", qpc, seed))
            twt = run(circuit, _cfg("twt", qpc, seed))
            rows.append((seed, count, hh, twt))
    return rows


def _linear_fit_residual(xs, ys):
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sxx
    intercept = mean_y - slope * mean_x
    worst = max(abs(y - (intercept + slope * x)) for x, y in zip(xs, ys))
    scale = max(abs(y) for y in ys)
    return worst / scale if scale else worst


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("bundle")
    runs = []  # (point, report) in row order, seen as run_experiment formats each row
    row_for = experiment.row_for

    def collecting_row_for(point, report):
        runs.append((point, report))
        return row_for(point, report)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiment, "row_for", collecting_row_for)
        started = time.perf_counter()
        for name, config in default_bundle():
            run_experiment(config, str(out_dir), name)
        elapsed = time.perf_counter() - started
    return {"dir": out_dir, "runs": runs, "elapsed": elapsed}


def test_criterion_1_route_fidelity():
    MESH.xy_route(0, 15)  # warm up
    started = time.perf_counter()
    route = MESH.xy_route(0, 15)
    plan = plan_twt(MESH, 0, 15)
    elapsed = time.perf_counter() - started
    assert route == [0, 1, 2, 3, 7, 11, 15]
    assert plan.exec_core == 3
    assert plan.src_hops == (1, 2, 3)
    assert plan.dst_hops == (11, 7, 3)
    assert elapsed < 1e-3, f"routing took {elapsed * 1e3:.3f} ms"
    print("\nACCEPTANCE 1 route fidelity: PASS")


def test_criterion_2_adjacent_radius_equivalence():
    for seed, count, hh, twt in _serialized_sweep(1, range(1, 33), range(1, 11), qpc=4):
        assert hh.comm_delay_sum == twt.comm_delay_sum, (seed, count)
        assert hh.comm_delay_critical == twt.comm_delay_critical, (seed, count)
    print("\nACCEPTANCE 2 adjacent-radius equivalence over 320 paired runs: PASS")


def test_criterion_3_round_ratios_and_reduction_ordering():
    # exact closed-form per-request ratios with certain entanglement success
    same_row = _single_request_latency(0, 3, "hh"), _single_request_latency(0, 3, "twt")
    assert same_row[0].requests[0].latency == 3 * HOP
    assert same_row[1].requests[0].latency == 2 * HOP  # ratio 2/3, zero tolerance
    corner = _single_request_latency(0, 15, "hh"), _single_request_latency(0, 15, "twt")
    assert corner[0].requests[0].latency == 6 * HOP
    assert corner[1].requests[0].latency == 3 * HOP  # ratio 1/2, zero tolerance

    # every ordered pair matches the planner's round counts exactly
    for src in range(16):
        for dst in range(16):
            if src == dst:
                continue
            hh_rounds, twt_rounds = MESH.hop_distance(src, dst), plan_twt(MESH, src, dst).rounds
            assert _single_request_latency(src, dst, "hh").requests[0].latency == hh_rounds * HOP
            assert _single_request_latency(src, dst, "twt").requests[0].latency == twt_rounds * HOP

    # qualitative ordering of sweep-level reductions, and dominance throughout
    reductions = {}
    for radius, qpc in ((1, 4), (3, 17), (6, 17)):
        hh_total = twt_total = 0.0
        for _seed, _count, hh, twt in _serialized_sweep(radius, range(1, 17), range(1, 6), qpc):
            assert twt.comm_delay_sum <= hh.comm_delay_sum
            assert twt.comm_delay_critical <= hh.comm_delay_critical
            hh_total += hh.comm_delay_sum
            twt_total += twt.comm_delay_sum
        reductions[radius] = 1.0 - twt_total / hh_total
    assert reductions[1] == 0.0
    assert reductions[1] < reductions[3] < reductions[6]
    print(
        "\nACCEPTANCE 3 round ratios (2/3 at d=3, 1/2 at d=6) and ordering "
        f"0 < {reductions[3]:.3f} < {reductions[6]:.3f}: PASS"
    )


def test_criterion_4_monotone_and_affine_sweeps():
    counts = list(range(1, 33))
    for radius, qpc in ((1, 4), (3, 17), (6, 17)):
        rows = _serialized_sweep(radius, counts, [1], qpc)
        hh_curve = [hh.comm_delay_sum for _s, _n, hh, _t in rows]
        twt_curve = [twt.comm_delay_sum for _s, _n, _h, twt in rows]
        for curve in (hh_curve, twt_curve):
            assert all(b > a for a, b in zip(curve, curve[1:])), f"radius {radius} not increasing"
        assert _linear_fit_residual(counts, hh_curve) < 1e-9
        if radius == 1:
            assert _linear_fit_residual(counts, twt_curve) < 1e-9
    print("\nACCEPTANCE 4 monotone sweeps, affine baseline delay: PASS")


def test_criterion_5_depth_accounting_exhaustive():
    started = time.perf_counter()
    for src in range(16):
        for dst in range(16):
            if src == dst:
                continue
            circuit = Circuit.from_ops(16, [("cx", (src, dst))])
            hh = run(circuit, _cfg("hh", qpc=1))
            assert hh.expanded_depth - hh.original_depth == MESH.hop_distance(src, dst)
            assert hh.expanded_depth == dag_depth_oracle(expanded_by_program_order(circuit, hh.hops))
            twt = run(circuit, _cfg("twt", qpc=1))
            plan = plan_twt(MESH, src, dst)
            assert twt.expanded_depth - twt.original_depth == max(len(plan.src_hops), len(plan.dst_hops))
            assert twt.expanded_depth == dag_depth_oracle(expanded_by_program_order(circuit, twt.hops))
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"exhaustive depth check took {elapsed:.1f} s"
    print(f"\nACCEPTANCE 5 depth accounting over 240 ordered pairs in {elapsed:.2f} s: PASS")


def test_criterion_6_real_benchmark_ordering(bundle):
    reductions = {}
    for workload in ("qft", "cuccaro", "mcmt", "qv"):
        pair = [(p, r) for p, r in bundle["runs"] if p.workload.startswith(workload)]
        hh = next(r for p, r in pair if p.cfg.strategy == "hh")
        twt = next(r for p, r in pair if p.cfg.strategy == "twt")
        reductions[workload] = (hh.comm_delay_critical - twt.comm_delay_critical) / hh.comm_delay_critical
    assert all(value > 0 for value in reductions.values()), reductions
    assert reductions["qft"] >= reductions["cuccaro"]
    assert bundle["elapsed"] < 60.0, f"bundle took {bundle['elapsed']:.1f} s"
    pretty = ", ".join(f"{k} {100 * v:.0f}%" for k, v in reductions.items())
    print(f"\nACCEPTANCE 6 benchmark delay reductions ({pretty}) in {bundle['elapsed']:.1f} s: PASS")


def test_criterion_7_geometric_attempt_statistics():
    started = time.perf_counter()
    cfg = TimingConfig(p_bsm=0.5)
    rng = request_stream(2024, 0)
    hops = 100_000
    total = sum(chain_attempts(cfg, rng, hops))  # one chain of 100,000 hops, drawn as the engine draws it
    elapsed = time.perf_counter() - started
    mean = total / hops
    assert abs(mean - 2.0) <= 0.04, f"mean attempts {mean:.4f}"
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 7 geometric attempts mean {mean:.4f} over {hops} hops in {elapsed:.1f} s: PASS")


def test_criterion_8_determinism_and_resource_audit(bundle, tmp_path):
    name, config = default_bundle()[0]
    first, _ = run_experiment(config, str(tmp_path / "a"), name)
    second, _ = run_experiment(config, str(tmp_path / "b"), name)
    assert Path(first).read_bytes() == Path(second).read_bytes()
    reference = (bundle["dir"] / f"{name}.csv").read_bytes()
    assert Path(first).read_bytes() == reference

    violations = []
    for point, report in bundle["runs"]:
        violations += audit_resources(report, point.cfg)
    assert violations == []
    print(
        f"\nACCEPTANCE 8 byte-identical re-run and zero violations across {len(bundle['runs'])} audited runs: PASS"
    )


def test_criterion_9_pinned_bundle_bytes(bundle):
    """The shipped bundle writes the committed bytes of tests/data/golden/bundle-seed1."""
    assert_same_files(bundle["dir"], "bundle-seed1")
    files = len(list(bundle["dir"].iterdir()))
    print(f"\nACCEPTANCE 9 pinned bundle bytes, {files} files equal to tests/data/golden/bundle-seed1: PASS")
