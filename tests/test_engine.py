import math
import tracemalloc
from collections import Counter
from dataclasses import replace
from itertools import permutations
from operator import attrgetter

import pytest

from oracles import (
    chain_latency_pmf,
    dag_depth_oracle,
    expanded_by_program_order,
    layer_bounds,
    max_pmf,
    phase_finish,
    pmf_mean_var,
)
from qnocsim import engine
from qnocsim.benchgen import CrMode, SynthSpec, gen_qft, gen_synthetic
from qnocsim.circuit import Circuit, Gate
from qnocsim.engine import SimConfig, audit_resources, run
from qnocsim.experiment import RunPoint, paired_reductions, row_for
from qnocsim.placement import CapacityError
from qnocsim.protocol import TimingConfig
from qnocsim.strategy import plan
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
    # (circuit, qubits per core); one per core spreads the qubits over the whole mesh. Random circuits
    # are on the grid, which checks its depths against the same oracles.
    workloads = [(gen_qft(12), 1), (gen_qft(12), 8), (synthetic, 8)]
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
            assert report.expanded_depth == len(expanded.layers)
            assert report.expanded_depth >= report.original_depth


def test_twt_corner_request_records_six_hops_on_both_qubits():
    c = Circuit.from_ops(16, [("cx", (0, 15))])
    report = run(c, cfg_for("twt"))
    assert len(report.hops) == 6
    assert {hop.qubit for hop in report.hops} == {0, 15}
    assert len(expanded_by_program_order(c, report.hops).gates) == len(c.gates) + 6


def test_doubling_every_duration_doubles_the_delays_exactly(grid):
    """Time scaling: every time is a sum of durations and attempt multiples,
    and doubling is exact in binary floating point, so the delays double
    exactly; depth, relocations and placement do not depend on time at all."""
    durations = ("t_epr", "t_meas", "t_classical", "t_correct", "t_gate")
    for case, circuit, cfg, base in grid:
        doubled = replace(cfg.timing, **{name: 2 * getattr(cfg.timing, name) for name in durations})
        scaled = run(circuit, replace(cfg, timing=doubled))
        for name in ("total_delay", "comm_delay_sum", "comm_delay_critical"):
            assert getattr(scaled, name) == 2 * getattr(base, name), (case, name)
        for name in ("expanded_depth", "congestion_events", "final_placement"):
            assert getattr(scaled, name) == getattr(base, name), (case, name)


@pytest.mark.parametrize("axis", ["x", "y"])
def test_mirroring_the_mesh_mirrors_the_run(axis, grid):
    """Mirror symmetry: relabelling every qubit onto the mirrored core, in the
    same slot, mirrors each hop's cores and qubit and changes nothing else.
    XY routing, both planners, FIFO ties (gate, chain, hop) and relocation
    order never look at a core id's value, so no aggregate and no time moves."""
    aggregates = ("total_delay", "comm_delay_sum", "comm_delay_critical", "original_depth", "expanded_depth",
                  "inter_core_requests", "congestion_events", "max_core_occupancy")
    for case, circuit, cfg, base in grid:
        w, h, n = cfg.topology.width, cfg.topology.height, cfg.n_per_core
        core = [(w - 1 - x if axis == "x" else x) + (h - 1 - y if axis == "y" else y) * w  # core -> its image
                for x, y in map(cfg.topology.coord_of, range(w * h))]
        qubit = [core[q // n] * n + q % n for q in range(w * h * n)]
        image = tuple(Gate(gate.name, tuple(qubit[q] for q in gate.qubits)) for gate in circuit.gates)
        mirrored = run(Circuit(circuit.num_qubits, image), cfg)
        for name in aggregates:
            assert getattr(mirrored, name) == getattr(base, name), (case, name)
        assert all(mirrored.final_placement[qubit[q]] == core[c] for q, c in enumerate(base.final_placement)), case
        assert len(mirrored.hops) == len(base.hops), case
        for i, (hop, hop_image) in enumerate(zip(base.hops, mirrored.hops)):
            assert (hop_image.gate_id, hop_image.chain, hop_image.hop_index, hop_image.attempts,
                    hop_image.start, hop_image.finish) == (
                hop.gate_id, hop.chain, hop.hop_index, hop.attempts, hop.start, hop.finish), (case, i)
            assert (hop_image.qubit, hop_image.src_core, hop_image.dst_core) == (
                qubit[hop.qubit], core[hop.src_core], core[hop.dst_core]), (case, i)


def test_a_lossless_run_does_not_depend_on_the_seed(grid):
    """At p_bsm 1 every hop takes one attempt and no chain draws from its
    stream, so another sim.seed gives an equal report, records included."""
    lossless = [(case, circuit, cfg, base) for case, circuit, cfg, base in grid if cfg.timing.p_bsm == 1]
    assert len(lossless) == 600
    for case, circuit, cfg, base in lossless:
        assert run(circuit, replace(cfg, seed=cfg.seed + 100)) == base, case


def test_report_is_deterministic(grid):
    """A lossy run is a function of its seed: rerun under it, each of the
    grid's 600 lossy cases gives an equal report, records included."""
    lossy = [(case, circuit, cfg, base) for case, circuit, cfg, base in grid if cfg.timing.p_bsm < 1]
    assert len(lossy) == 600
    for case, circuit, cfg, base in lossy:
        assert run(circuit, cfg) == base, case


def test_resource_audit_is_clean_across_strategies_and_seeds(grid):
    """No link or core pool is over-subscribed in any of the grid's runs."""
    for case, _, cfg, report in grid:
        assert audit_resources(report, cfg) == [], case


def test_every_sequential_hop_matches_the_protocol_closed_form(grid):
    """On the grid's 600 sequential runs a hop ends exactly at the protocol's
    closed form, and a chain's hops do not overlap."""
    sequential = [(case, cfg, report) for case, _, cfg, report in grid if not cfg.pipeline_hops]
    assert len(sequential) == 600
    for case, cfg, report in sequential:
        chain_free = {}  # (gate, chain) -> finish of its last hop
        for hop in sorted(report.hops, key=lambda h: (h.gate_id, h.chain, h.hop_index)):
            assert hop.finish == phase_finish(cfg.timing, hop.start, hop.attempts), case
            assert hop.start >= chain_free.get((hop.gate_id, hop.chain), hop.start), case
            chain_free[hop.gate_id, hop.chain] = hop.finish


def test_relocating_in_finish_order_replays_the_placement(grid):
    """Qubits relocate in hop finish order (ties by gate, chain, hop index):
    replaying the hops in that order on a plain qubit -> core list, with each
    core's load counted from the list, gives the final placement, the
    congestion count and the peak core occupancy."""
    for case, circuit, cfg, report in grid:
        qubit_core = [q // cfg.n_per_core for q in range(circuit.num_qubits)]
        congestion, peak = 0, max(map(qubit_core.count, range(cfg.topology.num_cores)))
        for hop in sorted(report.hops, key=lambda h: (h.finish, h.gate_id, h.chain, h.hop_index)):
            assert qubit_core[hop.qubit] == hop.src_core, case
            qubit_core[hop.qubit] = hop.dst_core
            held = qubit_core.count(hop.dst_core)
            congestion += held > cfg.n_per_core
            peak = max(peak, held)
        assert tuple(qubit_core) == report.final_placement, case
        assert (congestion, peak) == (report.congestion_events, report.max_core_occupancy), case


def test_every_layer_meets_its_chain_link_and_core_floors(grid):
    """No layer's critical latency falls below its chain, link or core floor
    (oracles.layer_bounds): the chain floor exactly, the two load floors up
    to the rounding of their sums. A one-request layer at m >= 2 without
    pipelining never waits, so its critical latency is its chain floor."""
    tight = 0
    for case, _, cfg, report in grid:
        sizes = Counter(request.issue for request in report.requests)
        for issue, (critical, chain, link, core) in layer_bounds(report.requests, report.hops, cfg).items():
            assert critical >= chain, (case, issue)
            assert max(link, core) <= critical * (1 + 1e-12), (case, issue)
            if sizes[issue] == 1 and cfg.m_per_core >= 2 and not cfg.pipeline_hops:
                assert critical == chain, (case, issue)
                tight += 1
    assert tight == 1136


def test_expanded_depth_matches_the_oracles_and_ignores_timing_and_resources(grid):
    """Expanded depth counts one teleport marker per hop in program order, so
    it equals the oracles' depth of that circuit and does not depend on m,
    p_bsm or pipelining."""
    depths = {}
    for case, circuit, _, report in grid:
        expanded = expanded_by_program_order(circuit, report.hops)
        assert report.expanded_depth == dag_depth_oracle(expanded) == len(expanded.layers), case
        assert report.expanded_depth >= report.original_depth, case
        depths.setdefault(case[:3] + case[6:], set()).add(report.expanded_depth)  # mesh, n, strategy, seed
    assert len(depths) == 150 and all(len(group) == 1 for group in depths.values())


def test_swapping_two_qubits_on_one_core_changes_only_their_hop_labels(grid):
    """Qubits 0 and 1 both start on core 0. Granting, relocation and
    congestion never look at a qubit id's value, so swapping the two changes
    each hop's qubit and permutes the final placement, and nothing else:
    every aggregate, request record and hop time, core and attempt count."""
    crowded = [(case, circuit, cfg, base) for case, circuit, cfg, base in grid if cfg.n_per_core >= 2]
    assert len(crowded) == 800
    for case, circuit, cfg, base in crowded:
        swap = [1, 0, *range(2, circuit.num_qubits)]
        image = tuple(Gate(gate.name, tuple(swap[q] for q in gate.qubits)) for gate in circuit.gates)
        expected = replace(base, hops=tuple(replace(hop, qubit=swap[hop.qubit]) for hop in base.hops),
                           final_placement=tuple(base.final_placement[q] for q in swap))
        assert run(Circuit(circuit.num_qubits, image), cfg) == expected, case


def test_transposing_a_square_mesh_changes_an_hh_route():
    """Swapping x and y is no symmetry of XY routing, which corrects x first:
    on 3x3 some hh route is not the transpose of the transposed pair's route."""
    mesh = MeshTopology(3, 3)
    transpose = [x * mesh.width + y for x, y in (mesh.coord_of(core) for core in range(mesh.num_cores))]
    route, _ = plan("hh", mesh, 0, 8)
    assert route == [1, 2, 5, 8]
    assert [transpose[c] for c in route] == [3, 6, 7, 8] != plan("hh", mesh, transpose[0], transpose[8])[0]
    report = run(Circuit.from_ops(9, [("cx", (0, 8))]), cfg_for("hh", mesh=mesh))
    assert [hop.dst_core for hop in report.hops] == route


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
    src_hops, dst_hops = plan("twt", MESH, 0, dst)
    src_chain = chain_latency_pmf(timing, len(src_hops))
    dst_chain = chain_latency_pmf(timing, len(dst_hops))
    exact = {
        "hh": chain_latency_pmf(timing, MESH.hop_distance(0, dst)),
        # The chains take disjoint draws of one i.i.d. stream, so they are independent.
        "twt": max_pmf(src_chain, dst_chain),
    }
    for strategy, pmf in exact.items():
        mean, var = pmf_mean_var(pmf)
        reports = [run(c, cfg_for(strategy, seed=seed, p_bsm=p_bsm)) for seed in range(SEEDS)]
        # With one request the delay sum is its latency, and reading it replays nothing.
        assert reports[0].comm_delay_sum == reports[0].requests[0].latency, strategy
        latencies = [report.comm_delay_sum for report in reports]
        bound = Z * math.sqrt(var / SEEDS)
        assert abs(math.fsum(latencies) / SEEDS - mean) <= bound, (strategy, mean, bound)


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


@pytest.mark.parametrize("strategy", ["hh", "twt"])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_a_core_grants_at_most_m_hops_at_once(strategy, m):
    # four one-hop requests leave the centre core 4 of a 3x3 mesh on its four
    # links; the k-th waits for k // m earlier hops to release a qubit there
    c = Circuit.from_ops(36, [("cx", (16, 4)), ("cx", (17, 12)), ("cx", (18, 20)), ("cx", (19, 28))])
    cfg = cfg_for(strategy, n=4, m=m, mesh=MeshTopology(3, 3))
    report = run(c, cfg)
    hops = sorted(report.hops, key=lambda h: h.gate_id)
    assert [h.link for h in hops] == [(1, 4), (3, 4), (4, 5), (4, 7)]
    assert [h.start for h in hops] == [HOP * (k // m) for k in range(4)]
    assert audit_resources(report, cfg) == []


@pytest.mark.xfail(
    strict=True,
    reason="a reservation that has not started yet blocks a communication qubit: "
    "core 1's second qubit is idle on [0, 14), yet gate 2's hop waits until 14",
)
def test_hop_never_waits_on_an_idle_communication_qubit():
    # gate 0 holds core 1's first qubit on [0, 14); gate 1 waits for link (0, 1)
    # and holds core 1's second qubit only on [14, 28)
    c = Circuit.from_ops(7, [("cx", (0, 3)), ("cx", (1, 4)), ("cx", (5, 6))])
    report = run(c, cfg_for("hh", n=3, m=2, mesh=MeshTopology(4, 1)))
    (hop,) = [h for h in report.hops if h.gate_id == 2]
    assert hop.link == (1, 2)
    assert hop.start == 0.0


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


def test_delay_totals_that_overflow_raise():
    c = Circuit.from_ops(16, [("cx", (0, 15))])  # six sequential hops of t_epr each
    assert math.isfinite(run(c, cfg_for("hh", t_epr=1e307)).total_delay)
    with pytest.raises(ValueError, match=r"not finite \(total_delay=inf, comm_delay_sum=inf, comm_delay_critical=inf\)"):
        run(c, cfg_for("hh", t_epr=1e308))


def test_attempt_counts_accumulate_with_lossy_bsm():
    c = Circuit.from_ops(16, [("cx", (0, 15))])
    report = run(c, cfg_for("hh", seed=3, p_bsm=0.5))
    assert report.requests[0].attempts >= 6
    assert report.requests[0].latency >= 6 * HOP
    again = run(c, cfg_for("hh", seed=3, p_bsm=0.5))
    assert report == again


@pytest.fixture(scope="module")
def paired_one_gate_runs():
    """(seed, src, dst), hh report, twt report: one lossy gate on every
    ordered core pair of MESH, one qubit per core, at seeds 1 to 3."""
    runs = []
    for seed in (1, 2, 3):
        for src, dst in permutations(range(MESH.num_cores), 2):
            c = Circuit.from_ops(MESH.num_cores, [("cx", (src, dst))])
            hh, twt = (run(c, cfg_for(strategy, seed=seed, p_bsm=0.5)) for strategy in ("hh", "twt"))
            runs.append(((seed, src, dst), hh, twt))
    assert len(runs) == 720
    return runs


def test_twt_hops_draw_the_hh_attempts_in_chain_then_hop_order(paired_one_gate_runs):
    """Common random numbers: a request's chains draw from its one stream,
    source chain first, so twt's d hops take the d attempt counts of hh's."""
    in_order = attrgetter("chain", "hop_index")
    differ = [
        case for case, hh, twt in paired_one_gate_runs
        if [h.attempts for h in sorted(hh.hops, key=in_order)] != [h.attempts for h in sorted(twt.hops, key=in_order)]
    ]
    assert differ == []
    twt_hops = [h for _, _, twt in paired_one_gate_runs for h in twt.hops]
    assert any(h.chain == 1 for h in twt_hops) and any(h.attempts > 1 for h in twt_hops)


def test_twt_and_hh_requests_draw_equal_attempts(paired_one_gate_runs):
    differ = [case for case, hh, twt in paired_one_gate_runs if hh.requests[0].attempts != twt.requests[0].attempts]
    assert differ == []


def test_twt_is_never_slower_than_hh_on_one_lossy_gate(paired_one_gate_runs):
    """One-gate dominance: both draw the same d attempt counts, which hh runs
    in one chain and twt splits into two chains that run at once."""
    latencies = [(case, twt.requests[0].latency, hh.requests[0].latency) for case, hh, twt in paired_one_gate_runs]
    assert [case for case, twt, hh in latencies if twt > hh] == []
    assert any(twt < hh for _, twt, hh in latencies)


@pytest.mark.parametrize("strategy", ["hh", "twt"])
def test_a_lossy_run_seeds_one_stream_per_request(strategy, monkeypatch):
    """At p_bsm < 1 each inter-core request seeds one stream, which both of
    its chains draw from; test_certain_success_runs_seed_no_random_stream
    covers p_bsm = 1."""
    calls = []
    real_stream = engine.request_stream

    def counted(*args):
        calls.append(args)
        return real_stream(*args)

    monkeypatch.setattr(engine, "request_stream", counted)
    spec = SynthSpec(target_depth=6, requests_per_layer=4, cr_mode=CrMode("random", 6), seed=5)
    report = run(gen_synthetic(spec, MESH, 2), cfg_for(strategy, n=2, seed=4, p_bsm=0.5))
    assert len(calls) == len(set(calls)) == report.inter_core_requests > 0
    assert any(request.distance > 1 for request in report.requests)  # some twt request has two chains


@pytest.mark.parametrize("p_bsm", [1.0, 0.5])
@pytest.mark.parametrize("strategy", ["hh", "twt"])
def test_the_engine_plans_every_request_through_engine_plan(strategy, p_bsm, monkeypatch):
    """Run and replay look plan up as a module global, the name that
    perfbench/tracing.py wraps: one call per request, with cfg.strategy."""
    strategies = []
    real_plan = engine.plan

    def counted(strategy, *args):
        strategies.append(strategy)
        return real_plan(strategy, *args)

    monkeypatch.setattr(engine, "plan", counted)
    spec = SynthSpec(target_depth=6, requests_per_layer=4, cr_mode=CrMode("random", 6), seed=5)
    report = run(gen_synthetic(spec, MESH, 2), cfg_for(strategy, n=2, seed=4, p_bsm=p_bsm))
    assert strategies == [strategy] * report.inter_core_requests
    assert report.inter_core_requests > 0
    report.hops  # the first read replays the run
    assert strategies == [strategy] * (2 * report.inter_core_requests)


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


@pytest.mark.parametrize("strategy", ["hh", "twt"])
def test_pipelined_hops_are_granted_in_gate_chain_hop_order(strategy):
    # every pipelined hop is ready at its layer's start, so the FIFO tie-break
    # grants a whole chain before the next one: records come out sorted
    spec = SynthSpec(target_depth=4, requests_per_layer=3, cr_mode=CrMode("random", 6), seed=3)
    c = gen_synthetic(spec, MESH, 2)
    cfg = SimConfig(topology=MESH, n_per_core=2, m_per_core=1, strategy=strategy, seed=1, pipeline_hops=True)
    report = run(c, cfg)
    order = [(h.gate_id, h.chain, h.hop_index) for h in report.hops]
    assert len(order) > 3 * 4 and order == sorted(order)
    assert audit_resources(report, cfg) == []


def _paired_rows(circuit, seed=0, **cfg_kw):
    """CSV rows of one hh and one twt run with the same seed, as a compare
    experiment writes them."""
    rows = []
    for strategy in ("hh", "twt"):
        cfg = cfg_for(strategy, seed=seed, **cfg_kw)
        rows.append(row_for(RunPoint("w", "-", circuit, cfg), run(circuit, cfg)))
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
    with pytest.raises(ValueError, match="^n_per_core must be positive$"):
        SimConfig(topology=MESH, n_per_core=0)


def test_a_large_m_per_core_costs_no_memory():
    """No core serves more hops in a layer than the layer has, so m past that
    count changes no record, and the run allocates nothing per communication qubit."""
    c = gen_qft(16)
    c.layers  # cached on the circuit, so not counted against the run
    cfg = cfg_for("hh", m=1000, seed=3, p_bsm=0.5)
    tracemalloc.start()
    try:
        report = run(c, replace(cfg, m_per_core=100_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report == run(c, cfg) and len(report.hops) == 48
    assert peak < 1024 * 1024
