"""Command-line entry points; all numbers come from the engine and generators."""

from __future__ import annotations

import argparse
import sys

from . import experiment
from .benchgen import CrMode, SynthSpec, gen_cuccaro, gen_mcmt, gen_qft, gen_quantum_volume, gen_synthetic
from .circuit import serialize_circuit
from .protocol import ProtocolError
from .topology import MeshTopology


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, ProtocolError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qnocsim", description=__doc__)
    sub = parser.add_subparsers(required=True)

    for kind in ("run", "compare", "sweep"):
        p = sub.add_parser(kind, help=f"{kind} an experiment configuration")
        p.add_argument("--config", help="experiment config file")
        p.add_argument("--strategy", choices=["hh", "twt", "both"])
        p.add_argument("--seed", type=int)
        p.add_argument("--out", default="results", help="output directory")
        p.add_argument("--name", default="results", help="artifact basename")
        p.add_argument("--format", choices=["csv", "json", "both"])
        p.add_argument("--workload", help="synthetic | qft | cuccaro | mcmt | qv | circuit file")
        p.add_argument("--requests", help="request counts, e.g. 1..32 or 5,10,20")
        p.add_argument("--depth", type=int, help="synthetic circuit depth")
        p.add_argument("--cr", help="connectivity radius mode: fixed:<r> or random:<max>")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE", help="override any config key")
        p.set_defaults(func=_cmd_experiment, kind=kind)

    p = sub.add_parser("bundle", help="run the default experiment bundle")
    p.add_argument("--out", default="results", help="output directory")
    p.set_defaults(func=_cmd_bundle)

    p = sub.add_parser("gen", help="generate a circuit in the gate-list format")
    gen_sub = p.add_subparsers(required=True)

    g = gen_sub.add_parser("synthetic")
    g.add_argument("--depth", type=int, required=True)
    g.add_argument("--requests", type=int, default=1, help="requests per layer")
    g.add_argument("--cr", default="fixed:3")
    g.add_argument("--seed", type=int, default=1)
    g.add_argument("--width", type=int, default=4)
    g.add_argument("--height", type=int, default=4)
    g.add_argument("--qubits-per-core", type=int, default=2)
    g.add_argument("--out")
    g.set_defaults(func=_cmd_gen_synthetic)

    g = gen_sub.add_parser("qft")
    g.add_argument("--qubits", type=int, required=True)
    g.add_argument("--out")
    g.set_defaults(func=lambda a: _emit(gen_qft(a.qubits), a.out))

    g = gen_sub.add_parser("cuccaro")
    g.add_argument("--bits", type=int, required=True)
    g.add_argument("--out")
    g.set_defaults(func=lambda a: _emit(gen_cuccaro(a.bits), a.out))

    g = gen_sub.add_parser("mcmt")
    g.add_argument("--controls", type=int, required=True)
    g.add_argument("--targets", type=int, required=True)
    g.add_argument("--out")
    g.set_defaults(func=lambda a: _emit(gen_mcmt(a.controls, a.targets), a.out))

    g = gen_sub.add_parser("qv")
    g.add_argument("--qubits", type=int, required=True)
    g.add_argument("--layers", type=int, required=True)
    g.add_argument("--seed", type=int, default=7)
    g.add_argument("--out")
    g.set_defaults(func=lambda a: _emit(gen_quantum_volume(a.qubits, a.layers, a.seed), a.out))

    p = sub.add_parser("plotdata", help="reshape a results CSV into per-figure files")
    p.add_argument("csv", help="results CSV produced by run/compare/sweep")
    p.add_argument("--out", default="plotdata", help="output directory")
    p.set_defaults(func=_cmd_plotdata)

    return parser


def _cmd_experiment(args) -> int:
    layers = []
    if args.config:
        layers.append(experiment.load_config(args.config))
    overrides = {}
    for pair in args.set:
        key, sep, value = pair.partition("=")
        if not sep:
            raise ValueError(f"--set expects KEY=VALUE, got {pair!r}")
        overrides[key.strip()] = value.strip()
    if args.workload:
        overrides["workload"] = args.workload
    if args.strategy:
        overrides["sim.strategy"] = args.strategy
    if args.seed is not None:
        overrides["sim.seed"] = str(args.seed)
    if args.format:
        overrides["out.format"] = args.format
    if args.requests:
        overrides["sweep.requests"] = args.requests
    if args.depth is not None:
        overrides["synthetic.depth"] = str(args.depth)
    if args.cr:
        overrides["sweep.cr"] = args.cr
    if args.kind == "compare":
        overrides["sim.strategy"] = "both"
    overrides["kind"] = args.kind
    layers.append(overrides)
    config = experiment.merge_config(*layers)
    if args.kind == "run" and config["sim.strategy"] == "both":
        config["sim.strategy"] = "hh"  # run means one simulation; compare runs both
    csv_path, json_path = experiment.run_experiment(config, args.out, args.name)
    for path in (csv_path, json_path):
        if path:
            print(path)
    return 0


def _cmd_bundle(args) -> int:
    for path in experiment.run_default_bundle(args.out):
        print(path)
    return 0


def _cmd_plotdata(args) -> int:
    for path in experiment.emit_plot_data(args.csv, args.out):
        print(path)
    return 0


def _cmd_gen_synthetic(args) -> int:
    topology = MeshTopology(args.width, args.height)
    spec = SynthSpec(
        target_depth=args.depth,
        requests_per_layer=args.requests,
        cr_mode=CrMode.parse(args.cr),
        seed=args.seed,
    )
    return _emit(gen_synthetic(spec, topology, args.qubits_per_core), args.out)


def _emit(circuit, out_path) -> int:
    text = serialize_circuit(circuit)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
