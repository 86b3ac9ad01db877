import math
from dataclasses import replace

import pytest

from oracles import (
    chain_latency_pmf,
    dag_depth_oracle,
    expanded_by_program_order,
    max_pmf,
    phase_finish,
    pmf_mean_var,
    random_circuit,
)
from qnocsim.benchgen import CrMode, SynthSpec, gen_qft, gen_synthetic
from qnocsim.circuit import Circuit, depth
from qnocsim.engine import SimConfig, audit_resources, run
from qnocsim.experiment import RunPoint, paired_reductions, row_for
from qnocsim.placement import CapacityError
from qnocsim.protocol import TimingConfig
from qnocsim.strategy import plan_twt
from qnocsim.topology import MeshTopology

MESH = MeshTopology(4, 4)
HOP = 14.0  # default per-hop latency: 1*t_epr + t_meas + t_classical + t_correct


def cfg_for(strategy="hh", n=1, m=2, seed=0, mesh=MESH, **timing_kw):
    timing = TimingConfig(**timing_kw) if timing_kw else TimingConfig()
    return SimConfig(topology=mesh, n_per_core=n, m_per_core=m, timing=timing, strategy=strategy, seed=seed)


def test_intra_core_circuit_has_no_communication():
    c = Circuit.from_ops(4, [("cx", (0, 1)), ("cx", (2, 3)), ("h", (0,))])
    report = run(c, cfg_for(n=4))  # everything starts on core 0
    assert report.inter_core_requests == 0
    assert report.comm_delay_sum == 0.0
    assert report.comm_delay_critical == 0.0
    assert report.expanded_depth == report.original_depth == 2
    assert report.total_delay == 2 * TimingConfig().t_gate


def test_single_adjacent_request_costs_one_hop():
    c = Circuit.from_ops(16, [("cx", (0, 1))])
    report = run(c, cfg_for("hh"))
    assert report.inter_core_requests == 1
    assert report.requests[0].latency == HOP
    assert report.expanded_depth == report.original_depth + 1
    assert report.total_delay == HOP + TimingConfig().t_gate


def test_corner_to_corner_hh_versus_twt():
    c = Circuit.from_ops(16, [("cx", (0, 15))])
    hh = run(c, cfg_for("hh"))
    twt = run(c, cfg_for("twt"))
    assert hh.requests[0].latency == 6 * HOP
    assert twt.requests[0].latency == 3 * HOP  # chains run in parallel
    assert hh.expanded_depth - hh.original_depth == 6
    assert twt.expanded_depth - twt.original_depth == 3
    assert hh.requests[0].distance == twt.requests[0].distance == 6


def test_every_sequential_hop_matches_the_protocol_closed_form():
    spec = SynthSpec(target_depth=6, requests_per_layer=2, cr_mode=CrMode("random", 6), seed=5)
    c = gen_synthetic(spec, MESH, 8)
    for strategy in ("hh", "twt"):
        cfg = cfg_for(strategy, n=8, seed=5, p_bsm=0.6)
        report = run(c, cfg)
        by_chain = {}
        for hop in report.hops:
            assert hop.finish == phase_finish(cfg.timing, hop.start, hop.attempts)
            key = (hop.gate_id, hop.chain)
            if key in by_chain:
                assert hop.start >= by_chain[key]  # hops of one qubit are sequential
            by_chain[key] = hop.finish


def test_report_is_deterministic():
    spec = SynthSpec(target_depth=5, requests_per_layer=3, cr_mode=CrMode("random", 6), seed=8)
    c = gen_synthetic(spec, MESH, 8)
    cfg = cfg_for("twt", n=8, seed=8, p_bsm=0.5)
    assert run(c, cfg) == run(c, cfg)


def test_twt_never_slower_than_hh_on_random_workloads():
    for seed in range(10):
        spec = SynthSpec(target_depth=4, requests_per_layer=2, cr_mode=CrMode("random", 6), seed=seed)
        c = gen_synthetic(spec, MESH, 8)
        hh = run(c, cfg_for("hh", n=8, seed=seed))
        twt = run(c, cfg_for("twt", n=8, seed=seed))
        assert twt.comm_delay_sum <= hh.comm_delay_sum
        assert twt.comm_delay_critical <= hh.comm_delay_critical


def test_appending_layers_never_reduces_total_delay():
    spec = SynthSpec(target_depth=8, requests_per_layer=2, cr_mode=CrMode("random", 6), seed=12)
    full = gen_synthetic(spec, MESH, 8)
    last = 0.0
    for layers in range(1, 9):
        prefix = Circuit(full.num_qubits, full.gates[: layers * 2])
        report = run(prefix, cfg_for("twt", n=8, seed=12))
        assert report.total_delay >= last
        last = report.total_delay


@pytest.mark.parametrize("strategy", ["hh", "twt"])
def test_expanded_depth_matches_independent_dag_oracle(strategy):
    synthetic = gen_synthetic(SynthSpec(5, 2, CrMode("random", 6), 7), MESH, 8)
    workloads = [  # (circuit, qubits per core); one per core spreads the qubits over the whole mesh
        (gen_qft(12), 1),
        (random_circuit(16, 40, seed=3), 1),
        (gen_qft(12), 8),
        (random_circuit(16, 40, seed=3), 8),
        (synthetic, 8),
    ]
    for c, n in workloads:
        base = cfg_for(strategy, n=n, seed=7)
        configs = [
            base,
            # zero durations: every hop and gate finishes at t = 0
            cfg_for(strategy, n=n, seed=7, t_epr=0, t_meas=0, t_classical=0, t_correct=0, t_gate=0),
            replace(base, pipeline_hops=True),
            cfg_for(strategy, n=n, seed=7, p_bsm=0.5),
        ]
        for cfg in configs:
            report = run(c, cfg)
            expanded = expanded_by_program_order(c, report.hops)
            assert report.expanded_depth == dag_depth_oracle(expanded)
            assert report.expanded_depth == depth(expanded)
            assert report.expanded_depth >= report.original_depth


def test_twt_corner_request_records_six_hops_on_both_qubits():
    c = Circuit.from_ops(16, [("cx", (0, 15))])
    report = run(c, cfg_for("twt"))
    assert len(report.hops) == 6
    assert {hop.qubit for hop in report.hops} == {0, 15}
    assert len(expanded_by_program_order(c, report.hops).gates) == len(c.gates) + 6


def test_expanded_depth_does_not_depend_on_timing_resources_or_seed():
    c = random_circuit(16, 60, seed=4)
    base = cfg_for("twt", n=2, seed=0)
    configs = [
        base,
        replace(base, m_per_core=1),
        replace(base, seed=9, timing=TimingConfig(p_bsm=0.3)),
        replace(base, pipeline_hops=True, timing=TimingConfig(p_bsm=0.6)),
        replace(base, timing=TimingConfig(t_epr=0, t_meas=0, t_classical=0, t_correct=0, t_gate=0)),
        replace(base, m_per_core=3, seed=2, timing=TimingConfig(t_epr=1.5, t_meas=7.25, t_gate=0.5, p_bsm=0.8)),
    ]
    depths = {run(c, cfg).expanded_depth for cfg in configs}
    assert len(depths) == 1
    assert depths.pop() > depth(c)


# The engine's mean latency over seeds 0..SEEDS-1 for one uncontended request
# must sit within Z standard errors of the exact mean, where the standard
# error sqrt(var / SEEDS) comes from the exact variance. By the central limit
# theorem a correct engine misses one such bound with probability about 6e-5,
# so about 1e-3 over the 16 comparisons below.
SEEDS = 1000
Z = 4.0


@pytest.mark.parametrize("p_bsm", [0.5, 0.25])
@pytest.mark.parametrize("dst", [1, 3, 10, 15])  # distances 1, 3, 4 and 6 from core 0
def test_uncontended_latency_mean_matches_exact_negative_binomial(p_bsm, dst):
    c = Circuit.from_ops(16, [("cx", (0, dst))])
    timing = TimingConfig(p_bsm=p_bsm)
    twt_plan = plan_twt(MESH, 0, dst)
    src_chain = chain_latency_pmf(timing, len(twt_plan.src_hops))
    dst_chain = chain_latency_pmf(timing, len(twt_plan.dst_hops))
    exact = {
        "hh": chain_latency_pmf(timing, MESH.hop_distance(0, dst)),
        "twt": max_pmf(src_chain, dst_chain),  # the two chains draw from independent streams
    }
    for strategy, pmf in exact.items():
        mean, var = pmf_mean_var(pmf)
        latencies = [run(c, cfg_for(strategy, seed=seed, p_bsm=p_bsm)).requests[0].latency for seed in range(SEEDS)]
        bound = Z * math.sqrt(var / SEEDS)
        assert abs(math.fsum(latencies) / SEEDS - mean) <= bound, (strategy, mean, bound)


def test_resource_audit_is_clean_across_strategies_and_seeds():
    for seed in range(6):
        spec = SynthSpec(target_depth=4, requests_per_layer=3, cr_mode=CrMode("random", 6), seed=seed)
        c = gen_synthetic(spec, MESH, 8)
        for strategy in ("hh", "twt"):
            cfg = cfg_for(strategy, n=8, m=1, seed=seed, p_bsm=0.7)
            report = run(c, cfg)
            assert audit_resources(report, cfg) == []


def test_single_comm_qubit_serializes_the_meeting_core():
    row = MeshTopology(3, 1)
    c = Circuit.from_ops(3, [("cx", (0, 2))])
    # both chains end at core 1 and need a communication qubit there
    scarce = run(c, SimConfig(topology=row, n_per_core=1, m_per_core=1, strategy="twt", seed=0))
    ample = run(c, SimConfig(topology=row, n_per_core=1, m_per_core=2, strategy="twt", seed=0))
    assert ample.requests[0].latency == HOP
    assert scarce.requests[0].latency == 2 * HOP
    assert audit_resources(scarce, SimConfig(topology=row, n_per_core=1, m_per_core=1, strategy="twt")) == []


def test_contended_comm_qubits_grant_fifo_by_gate_id():
    # routes 0->1->2 and 1->2->3 overlap at cores 1 and 2; with a single
    # comm qubit per core, equal-ready hops are granted to the lower gate id
    c = Circuit.from_ops(16, [("cx", (0, 2)), ("cx", (1, 3))])
    report = run(c, cfg_for("hh", m=1))
    assert audit_resources(report, cfg_for("hh", m=1)) == []
    first = {h.hop_index: h for h in report.hops if h.gate_id == 0}
    second = {h.hop_index: h for h in report.hops if h.gate_id == 1}
    assert first[0].start == 0.0
    assert second[0].start == first[0].finish  # waited on core 1's comm qubit
    latencies = {r.gate_id: r.latency for r in report.requests}
    assert latencies[0] > 2 * HOP and latencies[1] > 2 * HOP
    relaxed = run(c, cfg_for("hh", m=2))
    assert all(r.latency == 2 * HOP for r in relaxed.requests)


def test_congestion_counts_multi_occupancy():
    c = Circuit.from_ops(16, [("cx", (0, 15))])
    report = run(c, cfg_for("twt"))
    # every hop lands on a core whose resident qubit never left
    assert report.congestion_events == 6
    assert report.max_core_occupancy == 3  # resident + both operands at the meeting core
    # a move into a core with a spare computation slot is not congestion
    roomy = run(Circuit.from_ops(3, [("cx", (0, 2))]), cfg_for("twt", n=2))
    assert roomy.congestion_events == 0
    assert roomy.max_core_occupancy == 2


def test_capacity_error_propagates():
    c = Circuit.from_ops(17, [("cx", (0, 16))])
    with pytest.raises(CapacityError):
        run(c, cfg_for("hh"))


def test_attempt_counts_accumulate_with_lossy_bsm():
    c = Circuit.from_ops(16, [("cx", (0, 15))])
    report = run(c, cfg_for("hh", seed=3, p_bsm=0.5))
    assert report.requests[0].attempts >= 6
    assert report.requests[0].latency >= 6 * HOP
    again = run(c, cfg_for("hh", seed=3, p_bsm=0.5))
    assert report == again


def test_pipelined_hops_overlap_entanglement_generation():
    row = MeshTopology(3, 1)
    c = Circuit.from_ops(3, [("cx", (0, 2))])
    base = SimConfig(topology=row, n_per_core=1, m_per_core=2, strategy="hh", seed=0)
    sequential = run(c, base)
    pipelined = run(c, SimConfig(topology=row, n_per_core=1, m_per_core=2, strategy="hh", seed=0, pipeline_hops=True))
    assert sequential.requests[0].latency == 2 * HOP
    # second hop's entanglement is ready when the qubit arrives: 14 + tail
    assert pipelined.requests[0].latency == HOP + 4.0
    assert audit_resources(pipelined, base) == []


def test_pipelining_starves_without_spare_comm_qubits():
    row = MeshTopology(3, 1)
    c = Circuit.from_ops(3, [("cx", (0, 2))])
    scarce = SimConfig(topology=row, n_per_core=1, m_per_core=1, strategy="hh", seed=0, pipeline_hops=True)
    report = run(c, scarce)
    # the middle core's single comm qubit forces the hops back in sequence
    assert report.requests[0].latency == 2 * HOP
    assert audit_resources(report, scarce) == []


def _paired_rows(circuit, seed=0, **cfg_kw):
    """CSV rows of one hh and one twt run with the same seed, as a compare
    experiment writes them."""
    rows = []
    for strategy in ("hh", "twt"):
        cfg = cfg_for(strategy, seed=seed, **cfg_kw)
        rows.append(row_for(RunPoint("w", "-", seed, strategy, circuit, cfg), run(circuit, cfg)))
    return rows


def test_compare_reports_reductions():
    c = Circuit.from_ops(16, [("cx", (0, 15))])
    rows = _paired_rows(c)
    assert [row["strategy"] for row in rows] == ["hh", "twt"]
    assert paired_reductions(rows, "comm_delay_sum") == [0.5]
    assert paired_reductions(rows, "comm_delay_critical") == [0.5]


def test_compare_is_neutral_for_adjacent_requests():
    spec = SynthSpec(target_depth=6, requests_per_layer=1, cr_mode=CrMode("fixed", 1), seed=2)
    c = gen_synthetic(spec, MESH, 4)
    rows = _paired_rows(c, seed=2, n=4)
    assert paired_reductions(rows, "comm_delay_sum") == [0.0]
    assert paired_reductions(rows, "comm_delay_critical") == [0.0]
    assert rows[0]["comm_delay_sum"] == rows[1]["comm_delay_sum"]


def test_empty_circuit_runs():
    report = run(Circuit(4, ()), cfg_for())
    assert report.total_delay == 0.0
    assert report.original_depth == report.expanded_depth == 0


def test_request_records_carry_distance_and_rounds():
    c = Circuit.from_ops(16, [("cx", (0, 15))])
    for strategy in ("hh", "twt"):
        report = run(c, cfg_for(strategy))
        record = report.requests[0]
        assert record.distance == 6
        assert record.rounds == {"hh": 6, "twt": 3}[strategy]
        assert record.src_core == 0 and record.dst_core == 15


def test_occupancy_is_conserved_and_hop_log_replays_the_final_placement():
    from qnocsim.placement import PlacementMap

    spec = SynthSpec(target_depth=6, requests_per_layer=2, cr_mode=CrMode("random", 6), seed=4)
    c = gen_synthetic(spec, MESH, 8)
    for strategy in ("hh", "twt"):
        report = run(c, cfg_for(strategy, n=8, seed=4))
        assert len(report.final_placement) == c.num_qubits
        assert all(0 <= core < 16 for core in report.final_placement)
        replay = PlacementMap.initial_mapping(c.num_qubits, MESH, 8)
        for hop in sorted(report.hops, key=lambda h: (h.finish, h.gate_id, h.chain, h.hop_index)):
            replay.relocate(hop.qubit, hop.dst_core)
        assert tuple(replay.core_of(q) for q in range(c.num_qubits)) == report.final_placement
        assert sum(replay.occupancy(core) for core in range(16)) == c.num_qubits


def test_hh_parks_both_operands_at_the_destination_core():
    c = Circuit.from_ops(16, [("cx", (0, 15))])
    hh = run(c, cfg_for("hh"))
    assert hh.final_placement[0] == 15 and hh.final_placement[15] == 15
    twt = run(c, cfg_for("twt"))
    assert twt.final_placement[0] == 3 and twt.final_placement[15] == 3


def test_strategy_validation():
    with pytest.raises(ValueError):
        SimConfig(topology=MESH, strategy="walk")
    with pytest.raises(ValueError):
        SimConfig(topology=MESH, m_per_core=0)
