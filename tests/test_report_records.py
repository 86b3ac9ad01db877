"""SimReport.hops and SimReport.requests: tuples of records that a report
from run fills on the first read of either, by replaying the run once with
logging on."""

import copy
import dataclasses
import pickle
import random
import tracemalloc

import pytest

from golden import CIRCUIT, CONTENDED, EAGER_LOGS, LOSSY
from qnocsim import engine
from qnocsim.benchgen import gen_quantum_volume
from qnocsim.circuit import Circuit
from qnocsim.engine import HopRecord, RequestRecord, SimConfig, SimReport, audit_resources, run
from qnocsim.protocol import TimingConfig
from qnocsim.topology import MeshTopology


@pytest.mark.parametrize("pipeline_hops", [False, True], ids=["sequential", "pipelined"])
@pytest.mark.parametrize("p_bsm", [1.0, 0.5])
@pytest.mark.parametrize("m_per_core", [1, 2])
@pytest.mark.parametrize("strategy", ["hh", "twt"])
def test_request_records_agree_with_the_hop_log(strategy, m_per_core, p_bsm, pipeline_hops, grid):
    """On the grid's 75 runs of this slice, a hop's link is the one between
    its cores, and a request's attempts, arrival and issue agree with its
    hops; some first hop waits on a busy resource, so the issue check is not vacuous."""
    point = (m_per_core, p_bsm, pipeline_hops, strategy)
    runs = [(case, cfg, report) for case, _, cfg, report in grid if case[3:7] == point]
    assert len(runs) == 75
    contended = False
    for case, cfg, report in runs:
        hops_of: dict[int, list[HopRecord]] = {}
        for hop in report.hops:
            hops_of.setdefault(hop.gate_id, []).append(hop)
            assert hop.link == cfg.topology.bsm_link_between(hop.src_core, hop.dst_core), case
        assert sorted(hops_of) == sorted(request.gate_id for request in report.requests), case
        for request in report.requests:
            hops = hops_of[request.gate_id]
            assert request.attempts == sum(hop.attempts for hop in hops), case
            assert request.arrival == max(hop.finish for hop in hops), case
            assert request.issue <= min(hop.start for hop in hops), case
            contended |= any(hop.hop_index == 0 and hop.start > request.issue for hop in hops)
    assert contended


def test_len_is_the_same_before_and_after_the_first_read():
    report = run(CIRCUIT, LOSSY)
    assert len(report.hops) == 48 and len(report.requests) == report.inter_core_requests == 15
    assert all(type(hop) is HopRecord for hop in report.hops)
    assert all(type(request) is RequestRecord for request in report.requests)
    assert len(report.hops) == 48 and len(report.requests) == 15


def test_indexing_and_slicing_read_the_records():
    report = run(CIRCUIT, LOSSY)
    hops = tuple(report.hops)
    assert report.hops[0] == hops[0] and report.hops[-1] == hops[-1]
    assert report.hops[0].link == (2, 3) and report.hops[0].attempts == 2
    assert report.hops[2:7] == hops[2:7] and type(report.hops[2:7]) is tuple
    assert report.requests[-1] == tuple(report.requests)[-1]
    with pytest.raises(IndexError):
        report.hops[len(hops)]
    for cfg, hop_count, request_count in EAGER_LOGS.values():
        report = run(CIRCUIT, cfg)
        assert (len(report.hops), len(report.requests)) == (hop_count, request_count)
        assert list(report.hops) == [report.hops[i] for i in range(hop_count)]


def test_views_compare_and_hash_like_tuples():
    report, again = run(CIRCUIT, LOSSY), run(CIRCUIT, LOSSY)
    assert report.hops == tuple(again.hops) and tuple(again.hops) == report.hops
    assert report.requests == tuple(again.requests) and tuple(again.requests) == report.requests
    assert report.hops == again.hops and not report.hops != again.hops
    assert report.hops != report.hops[1:] and report.hops[1:] != report.hops
    assert report.hops != list(report.hops)
    assert hash(report) == hash(again) == hash(run(CIRCUIT, LOSSY))
    assert hash(report.hops) == hash(tuple(report.hops))
    assert report == again and report != run(CIRCUIT, CONTENDED)


def test_views_concatenate_with_tuples():
    report = run(CIRCUIT, LOSSY)
    first = report.hops[0]
    assert report.hops + (first,) == tuple(report.hops) + (first,)
    assert (first,) + report.hops == (first,) + tuple(report.hops)
    assert type(report.hops + ()) is tuple and type(() + report.hops) is tuple


@pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
@pytest.mark.parametrize(
    "round_trip",
    [lambda r: pickle.loads(pickle.dumps(r)), copy.deepcopy, copy.copy, dataclasses.replace],
    ids=["pickle", "deepcopy", "copy", "replace"],
)
def test_reports_round_trip(round_trip, read_first):
    report = run(CIRCUIT, LOSSY)
    if read_first:
        assert report.hops[0].gate_id == 0 and report.requests[0].latency > 0
    copied = round_trip(report)
    assert copied == report == run(CIRCUIT, LOSSY)
    assert hash(copied) == hash(report)
    assert len(copied.hops) == 48 and copied.hops[-1] == report.hops[-1]
    assert [r.latency for r in copied.requests] == [r.arrival - r.issue for r in report.requests]
    assert copy.deepcopy(report.requests[0]) == pickle.loads(pickle.dumps(report.requests[0]))


def test_request_records_are_slotted():
    record = run(CIRCUIT, LOSSY).requests[0]
    assert not hasattr(record, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.arrival = 0.0
    assert dataclasses.replace(record, arrival=record.issue + 3.0).latency == 3.0


def test_a_clashing_hop_appended_to_a_report_fails_the_audit():
    cfg = SimConfig(topology=MeshTopology(4, 1), n_per_core=1, m_per_core=2)
    report = run(Circuit.from_ops(4, [("cx", (0, 3)), ("cx", (1, 2))]), cfg)
    assert audit_resources(report, cfg) == []
    first = report.hops[0]
    clash = dataclasses.replace(first, gate_id=first.gate_id + 100)  # same link, same interval
    assert audit_resources(dataclasses.replace(report, hops=report.hops + (clash,)), cfg)


@pytest.fixture
def replays(monkeypatch):
    """Whether each engine._simulate call logs: False for a run, True for a replay."""
    simulate, calls = engine._simulate, []

    def counting(circuit, cfg, logs):
        calls.append(logs is not None)
        return simulate(circuit, cfg, logs)

    monkeypatch.setattr(engine, "_simulate", counting)
    return calls


def test_run_builds_records_only_when_they_are_read(monkeypatch, replays):
    built = {"hops": 0, "requests": 0}

    def counting(record_cls, key):
        class Counting(record_cls):
            __slots__ = ()

            def __new__(cls, *fields):
                built[key] += 1
                return super().__new__(cls)

        return Counting

    monkeypatch.setattr(engine, "HopRecord", counting(HopRecord, "hops"))
    monkeypatch.setattr(engine, "RequestRecord", counting(RequestRecord, "requests"))
    first_reads = {
        "len": lambda report: len(report.requests),
        "index": lambda report: report.hops[0],
        "iterate": lambda report: list(report.requests),
        "compare": lambda report: report.hops == (),
        "replace": dataclasses.replace,
    }
    for name, first_read in first_reads.items():
        built.update(hops=0, requests=0)
        replays.clear()
        report = run(CIRCUIT, LOSSY)
        assert report.inter_core_requests == 15 and report.total_delay > 0
        assert (built, replays) == ({"hops": 0, "requests": 0}, [False]), name
        first_read(report)
        assert (built, replays) == ({"hops": 48, "requests": 15}, [False, True]), name
        copied = dataclasses.replace(report)
        assert copied.hops[-1] is report.hops[-1] and copied.requests[0] is report.requests[0], name
        assert len(copied.hops) == 48 and len(report.requests) == 15 and report == copied
        assert (built, replays) == ({"hops": 48, "requests": 15}, [False, True]), name


@pytest.fixture(scope="module")
def unread_qv_reports():
    """Bytes held by, and hop count of, an unread report of a qv 256-qubit run
    of 10 and of 40 layers, keyed by layers."""
    cfg = SimConfig(topology=MeshTopology(8, 8), n_per_core=4, m_per_core=1, timing=TimingConfig(p_bsm=0.5))
    circuits = {layers: gen_quantum_volume(256, layers, seed=1) for layers in (10, 40)}
    for circuit in circuits.values():
        circuit.layers  # cached on the circuit, so not counted against the report
    run(circuits[10], cfg)  # fills the free lists of tuples and floats, which tracemalloc counts as held
    held, hops = {}, {}
    for layers, circuit in circuits.items():
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            report = run(circuit, cfg)
            held[layers] = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        hops[layers] = len(report.hops)
        del report
    return held, hops


def test_an_unread_report_holds_under_100_bytes_per_hop(unread_qv_reports):
    """The hop log is most of a large run's memory, and an unread report
    holds none of it."""
    held, hops = unread_qv_reports
    assert hops[10] >= 5000
    assert held[10] / hops[10] < 100


def test_an_unread_report_holds_no_memory_per_hop(unread_qv_reports):
    """run keeps no hop or request log, so what an unread report holds does
    not grow with its hop count; the margin covers the interpreter's free lists."""
    held, hops = unread_qv_reports
    assert hops[40] - hops[10] > 15_000
    assert held[40] - held[10] < 32 * 1024


def test_reading_hops_then_requests_replays_the_run_once(replays):
    report = run(CIRCUIT, LOSSY)
    assert replays == [False]
    assert len(report.hops) == 48 and len(report.requests) == 15 and replays == [False, True]
    assert report.hops[0].gate_id == 0 and replays == [False, True]
    assert report.requests[-1].arrival <= report.total_delay and replays == [False, True]
    assert tuple(report.hops) == tuple(run(CIRCUIT, LOSSY).hops)


def test_repr_names_the_totals_and_replays_nothing(replays):
    report = run(CIRCUIT, LOSSY)
    text = repr(report)
    assert replays == [False]
    assert text.startswith("SimReport(total_delay=")
    for name in ("total_delay", "comm_delay_sum", "comm_delay_critical", "expanded_depth",
                 "inter_core_requests", "congestion_events", "final_placement"):
        assert f"{name}={getattr(report, name)!r}" in text
    assert "HopRecord" not in text and "RequestRecord" not in text and "hops=" not in text
    assert replays == [False]
    copied = dataclasses.replace(report)  # reads every field, the records too
    assert replays == [False, True] and repr(copied) == text
    assert report == copied and report != dataclasses.replace(report, hops=report.hops[1:])
    assert replays == [False, True]


def test_records_are_tuples_that_only_a_report_from_run_replays(replays):
    report = run(CIRCUIT, LOSSY)
    assert "hops" not in vars(report) and "requests" not in vars(report)
    with pytest.raises(AttributeError, match="no attribute 'log'"):
        report.log
    assert replays == [False]
    assert type(report.hops) is tuple and type(report.requests) is tuple and replays == [False, True]
    assert "_replay" not in vars(report)  # dropped once read, with the circuit it holds
    built = SimReport(**{f.name: getattr(report, f.name) for f in dataclasses.fields(SimReport)})
    assert vars(built) == vars(report) and vars(copy.copy(report)) == vars(report)
    with pytest.raises(AttributeError, match="no attribute 'hops'"):
        object.__new__(SimReport).hops


def test_a_replay_that_disagrees_with_the_report_raises(monkeypatch):
    """A patched engine global restored before the first read changes the
    replay; the read raises rather than return a log that disagrees with the totals."""
    report = run(CIRCUIT, LOSSY)
    monkeypatch.setattr(engine, "request_stream", lambda *args: random.Random(0))
    with pytest.raises(RuntimeError, match="could not be reproduced"):
        report.hops[0]
    with pytest.raises(RuntimeError, match="could not be reproduced"):
        tuple(report.requests)
    monkeypatch.undo()
    assert report.hops == run(CIRCUIT, LOSSY).hops
