"""Command-line entry points; all numbers come from the engine and generators."""

from __future__ import annotations

import argparse
import sys

from . import experiment
from .circuit import ascii_number, serialize_circuit
from .protocol import ProtocolError
from .strategy import STRATEGIES


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for path in args.func(args):
            print(path)
    except (ValueError, OSError, ProtocolError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qnocsim", description=__doc__)
    sub = parser.add_subparsers(required=True)

    p = _config_parser(sub, "run", "run an experiment configuration, writing <name>.csv and <name>.json")
    p.add_argument("--strategy", choices=[*STRATEGIES, "both"])
    p.add_argument("--out", default="results", help="output directory")
    p.add_argument("--name", default="results", help="artifact basename")
    p.set_defaults(func=lambda args: experiment.run_experiment(_config(args), args.out, args.name))

    p = sub.add_parser("bundle", help="run the default experiment bundle")
    p.add_argument("--out", default="results", help="output directory")
    p.set_defaults(func=lambda args: experiment.run_default_bundle(args.out))

    p = _config_parser(sub, "gen", "write the circuit a configuration builds, in the gate-list format")
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("plotdata", help="reshape a results CSV into per-figure files")
    p.add_argument("csv", help="results CSV produced by run")
    p.add_argument("--out", default="plotdata", help="output directory")
    p.set_defaults(func=lambda args: experiment.emit_plot_data(args.csv, args.out))

    return parser


def _config_parser(sub, name: str, help_text: str) -> argparse.ArgumentParser:
    """A subcommand that reads an experiment configuration; see _config."""
    p = sub.add_parser(name, help=help_text)
    p.add_argument("--config", help="experiment config file")
    p.add_argument("--seed", type=ascii_number, help="run exactly this seed, replacing sweep.seeds")
    p.add_argument("--workload", help="synthetic | qft | cuccaro | mcmt | qv | circuit file")
    p.add_argument("--requests", help="total request counts, e.g. 1..32 or 5,10,20")
    p.add_argument("--depth", type=ascii_number, help="synthetic circuit depth")
    p.add_argument("--cr", help="connectivity radius mode: fixed:<r> or random:<max>")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE", help="override any config key")
    return p


def _config(args) -> dict[str, str]:
    """DEFAULTS, then --config, then --set, then the named flags; a flag not
    given sets nothing."""
    layers = [experiment.load_config(args.config)] if args.config else []
    flags = {}
    for pair in args.set:
        key, sep, value = (part.strip() for part in pair.partition("="))
        if not sep:
            raise ValueError(f"--set expects KEY=VALUE, got {pair!r}")
        if not key or not value:
            raise ValueError(f"--set {pair!r}: empty key or value")
        flags[key] = value
    for key, value in (
        ("workload", args.workload),
        ("sweep.seeds", args.seed),  # not sim.seed, which a file's sweep.seeds would override
        ("sweep.requests", args.requests),
        ("synthetic.depth", args.depth),
        ("sweep.cr", args.cr),
        ("sim.strategy", getattr(args, "strategy", None)),  # run has --strategy, gen does not
    ):
        if value is not None:
            flags[key] = str(value)
    return experiment.merge_config(*layers, flags)


def _cmd_gen(args) -> tuple:
    text = serialize_circuit(experiment.single_circuit(_config(args)))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return ()


if __name__ == "__main__":
    sys.exit(main())
