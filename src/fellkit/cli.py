"""Command-line front door: build models, run the verification suites.

Commands:

* ``generate`` — write a model JSON from a preset or input file;
* ``check {axioms|pair|cocycle|theorem-3.13|generation}`` — run one suite;
* ``phi {build|readoff|roundtrip}`` — the embedding-invariant pipeline;
* ``report`` — every applicable suite in one document, an extracted ω by
  the sha256 of its array (``serialize.cocycle_sha256``).

Each ``check`` and ``phi`` subcommand is one suite function in ``CHECKS`` or
``PHI``: it takes the command's pipeline and returns its entry's fields, and
``run_check`` / ``run_phi`` name the entry.  The parser's choices are the
tables' keys, so a new check is one table entry.

Every option is one entry of ``OPTIONS``.  ``read_argv`` reads a command
in the documented form ``COMMAND [SUITE] (--name VALUE)…`` from that table
alone, into the namespace argparse would give, and builds no parser; argparse
is imported only for any other argv.  Then the command's own parser,
``build_parser(command)``, reads abbreviations, ``--name=value``, repeated
options and a suite after the options, and prints the command's help and
errors; top-level help, a missing or unknown command and stray arguments
reach the full parser, whose usage and messages they print.  So argparse is
the one source of help and error text, and both parsers are built from
``OPTIONS``: a new option is one entry.
The first command in a process calls ``gc.freeze()`` once, so no collection
walks the start-up heap.

Exit codes: 0 all checks passed, 1 a mathematical check failed, 2 usage or
parse error (a model file that is not UTF-8 JSON is a parse error).  A suite
that raises on its model reports a failed check with the error, and the
other suites of a report still run.  Reports are canonical JSON (sorted
keys), byte-identical for identical config and seed.
The tolerance comes from --eps, else the FELLKIT_EPS environment variable,
else 1e-9.
"""

from __future__ import annotations

import functools
import gc
import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .dynamics import (
    a_dynamical_generation_check,
    check_unitary_normalizer_theorem,
    covariance_group_from_frame,
)
from .embedding import (
    IncompleteSupportError,
    Pipeline,
    bridge_round_trip,
    cartan_from_fell_bundle,
    is_orientable,
)
from .fellbundle import (
    CStarBundle,
    FellBundleModel,
    build_imprimitivity_bundle,
    build_semidirect_bundle,
    diagonal_algebra,
    enveloping_algebra,
)
from .groupoid import Bisection, cycle_bisection
from .linalg import DEFAULT_EPS
from .presets import flow_frame, random_symmetric_frame
from .serialize import (
    ParseError,
    cocycle_sha256,
    dumps_canonical,
    loads,
    model_from_json,
    model_to_json,
)

if TYPE_CHECKING:
    import argparse

PRESETS = ("fourpoint", "diag-masa", "imprimitivity", "semidirect", "flow")


class UsageError(Exception):
    pass


def _at_least(option: str, value: int, least: int = 1) -> int:
    if value < least:
        raise UsageError(f"{option} must be at least {least}, got {value}")
    return value


def _block_dims(text: str) -> tuple[int, ...]:
    try:
        return tuple(_at_least("--dims entry", int(d)) for d in text.split(","))
    except ValueError as exc:
        raise UsageError(f"--dims must be comma-separated integers, got {text!r}") from exc


def build_preset(name: str, args, eps: float) -> tuple[FellBundleModel, Bisection | None]:
    """The preset model; only the random frames draw, from --seed.  A size
    below 1, or a seed below 0 where it is drawn from, is a usage error."""
    if name in ("fourpoint", "diag-masa"):
        n = 4 if name == "fourpoint" else _at_least("--n", args.n)
        model = build_semidirect_bundle(CStarBundle((1,) * n), eps=eps)
        return model, cycle_bisection(n)
    if name == "imprimitivity":
        return build_imprimitivity_bundle(_block_dims(args.dims)), None
    n, dim = _at_least("--points", args.points), _at_least("--dim", args.dim)
    rng = np.random.default_rng(_at_least("--seed", args.seed, 0))
    if name == "semidirect":
        frame, g = random_symmetric_frame(n, dim, rng), cycle_bisection(n)
    else:
        frame, g = flow_frame(n, dim, rng)
    return build_semidirect_bundle(CStarBundle((dim,) * n), frame=frame, eps=eps), g


def load_model(args, eps) -> tuple[FellBundleModel, Bisection | None]:
    if args.preset is not None:
        return build_preset(args.preset, args, eps)
    with open(args.input, "rb") as f:
        return model_from_json(loads(f.read()), eps=eps)


def _need_generator(generator: Bisection | None) -> Bisection:
    if generator is None:
        raise UsageError("this command needs a model with a generator")
    return generator


def isolated(prefix: str):
    """Turn a contract a suite raises (ValueError, RuntimeError) into its
    failed check, so that one failing suite does not take down a report."""

    def decorate(run):
        @functools.wraps(run)
        def guarded(what: str, *args, **kwargs) -> dict:
            try:
                return run(what, *args, **kwargs)
            except (ValueError, RuntimeError) as exc:
                return {"check": prefix + what, "pass": False, "error": str(exc)}

        return guarded

    return decorate


def pipeline(model, generator, eps: float) -> Pipeline:
    """One command's axiom report, group along the generator, Φ and read-off."""
    return Pipeline(
        model, lambda: covariance_group_from_frame(_need_generator(generator), model, eps),
        eps)


# The suites: each returns its entry's fields but "check", from the
# command's pipeline.  No suite draws.

def _axioms(built: Pipeline) -> dict:
    report = built.axioms()
    return {"pass": report.all_passed, "residual": max(report.residuals),
            "details": report.as_dict()}


def _pair(built: Pipeline) -> dict:
    _, classification, _ = cartan_from_fell_bundle(built.model, built.eps, built.axioms())
    return {"pass": classification.verdict in ("diagonal", "cartan"), "residual": 0.0,
            "details": classification.as_dict()}


def _holonomy(readoff) -> dict:
    """A read-off's residual, its holonomy h, and the point that attains h."""
    return {"residual": readoff.holonomy, "witness": {"point": readoff.witness + 1}}


def _cocycle(built: Pipeline) -> dict:
    if built.model.twist is not None:
        axioms = built.axioms()  # 3 is the identity; the builder refused inadmissible twists
        return {"pass": axioms.passed[2], "residual": axioms.residuals[2],
                "details": {"source": "model twist"}}
    # ω = δa holds the identity identically; the read-off raises iff h > eps
    readoff = built.readoff()
    return {"pass": True, **_holonomy(readoff),
            "details": {"source": "extracted from generator orbit", "omega": readoff.omega}}


def _theorem_3_13(built: Pipeline) -> dict:
    result = check_unitary_normalizer_theorem(built.model, eps=built.eps)
    return {"pass": result["pass"], "residual": 0.0, "details": result}


def _generation(built: Pipeline) -> dict:
    Gs, B = built.group(), enveloping_algebra(built.model)
    A = diagonal_algebra(built.model)
    return {"pass": a_dynamical_generation_check(Gs, A, B, built.eps), "residual": 0.0,
            "details": {"generator_order": Gs.flow.order, "target_dim": B.dim()}}


def _phi_build(built: Pipeline) -> dict:
    Gs, phi, eps = built.group(), built.phi(), built.eps
    orientable = is_orientable(phi, eps)
    supports = {"block_support": phi.block_support(eps), "generator_support": Gs.support(0, eps),
                "generator_squared_support": Gs.support(1 % Gs.flow.order, eps)}
    return {"pass": orientable, "residual": 0.0, "phi": phi.matrix(), "orientable": orientable,
            "block_dims": list(phi.block_dims),
            **{key: sorted([i + 1, j + 1] for i, j in s) for key, s in supports.items()}}


def _phi_readoff(built: Pipeline) -> dict:
    readoff = built.readoff()
    return {"pass": True, **_holonomy(readoff), "block_dims": list(readoff.A.block_dims),
            "ambient_dim": readoff.B.ambient_dim, "orientable": True,
            "normalizer_sample_size": len(readoff.normalizer_sample),
            "omega": readoff.omega, "note": readoff.note}


def _phi_roundtrip(built: Pipeline) -> dict:
    report = bridge_round_trip(built.group(), built.eps, built)
    # h is the largest of the report's residuals
    return {"pass": report["pass"], "details": report, **_holonomy(built.readoff())}


CHECKS = {"axioms": _axioms, "pair": _pair, "cocycle": _cocycle,
          "theorem-3.13": _theorem_3_13, "generation": _generation}
PHI = {"build": _phi_build, "readoff": _phi_readoff, "roundtrip": _phi_roundtrip}


@isolated("")
def run_check(what: str, built: Pipeline) -> dict:
    """The entry of the suite ``CHECKS[what]``."""
    return {"check": what, **CHECKS[what](built)}


@isolated("phi-")
def run_phi(what: str, built: Pipeline) -> dict:
    """The entry of ``PHI[what]``, or the arrows a non-minimal generator misses."""
    built.group()
    try:
        built.phi()
    except IncompleteSupportError as exc:
        return {"check": "phi-" + what, "pass": False, "error": "generator is not minimal",
                "missing_pairs": sorted([x + 1, y + 1] for (x, y) in exc.missing)}
    return {"check": "phi-" + what, **PHI[what](built)}


def run_report(built: Pipeline, generator: Bisection | None) -> dict:
    model = built.model
    checks = [run_check("axioms", built), run_check("pair", built)]
    if generator is not None:
        if model.twist is not None or model.frame is not None:
            checks.append(run_check("cocycle", built))
            details = checks[-1].get("details", {})  # `check cocycle` prints ω in full
            if "omega" in details:
                details["omega_sha256"] = cocycle_sha256(details.pop("omega"))
        if len(set(model.fibre_dims)) == 1:
            checks.append(run_check("theorem-3.13", built))
        checks.append(run_check("generation", built))
        if model.frame is not None:
            checks.append(run_phi("roundtrip", built))
    return {
        "check": "report",
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }


def render_text(doc: dict) -> str:
    lines = []

    def walk(d, indent=0):
        pad = "  " * indent
        if isinstance(d, dict):
            for k, v in sorted(d.items()):
                if isinstance(v, (dict, list)):
                    lines.append(f"{pad}{k}:")
                    walk(v, indent + 1)
                else:
                    lines.append(f"{pad}{k}: {v}")
        else:
            for v in d:
                if isinstance(v, (dict, list)):
                    walk(v, indent)
                    lines.append("")
                else:
                    lines.append(f"{pad}- {v}")

    walk(loads(dumps_canonical(doc)))
    return "\n".join(lines).rstrip() + "\n"


def emit(doc: dict, args) -> None:
    text = render_text(doc) if args.format == "text" else dumps_canonical(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def resolve_eps(args) -> float:
    """--eps, else FELLKIT_EPS, else 1e-9; outside (0, 1), or NaN, a usage error."""
    source, value = "--eps", args.eps
    if value is None:
        source, value = "FELLKIT_EPS", os.environ.get("FELLKIT_EPS", DEFAULT_EPS)
    try:
        eps = float(value)
    except ValueError as exc:
        raise UsageError(f"bad {source} value {value!r}") from exc
    if not 0 < eps < 1:
        raise UsageError(f"{source} must lie in (0, 1), got {eps}")
    return eps


COMMANDS = {"generate": "write a model JSON", "check": "run one verification suite",
            "phi": "embedding-invariant pipeline", "report": "run every applicable suite"}


class Option(NamedTuple):
    """One ``--name VALUE`` option, as ``add_argument``'s keywords: ``type``
    converts the value, which must lie in ``choices`` when they are given."""
    type: type = str
    choices: tuple | None = None
    default: object = None
    metavar: str | None = None
    help: str | None = None


# a command names exactly one of the model's sources
SOURCES = ("preset", "input")
OPTIONS = {
    "preset": Option(choices=PRESETS),
    "input": Option(metavar="MODEL_JSON"),
    "n": Option(int, default=4, help="diag-masa point count"),
    "dims": Option(default="2,1,3", help="imprimitivity block dims"),
    "points": Option(int, default=4, help="semidirect/flow point count"),
    "dim": Option(int, default=2, help="semidirect/flow fibre dim"),
    "eps": Option(float, help="tolerance (overrides FELLKIT_EPS)"),
    "seed": Option(int, default=0,
                   help="seed of the semidirect and flow preset frames"),
    "out": Option(help="output path (default stdout)"),
    "format": Option(choices=("text", "json"), default="json"),
}
SUITES = {"check": CHECKS, "phi": PHI}


def read_argv(argv) -> SimpleNamespace | None:
    """The namespace argparse gives ``COMMAND [SUITE] (--name VALUE)…``: each
    name exact and at most once, no value starting with "-", each converted
    by its type and inside its choices, the suite first, exactly one source.
    None for any other argv, which argparse then reads."""
    if not argv or argv[0] not in COMMANDS:
        return None
    command, rest = argv[0], argv[1:]
    fields = {"command": command}
    if command in SUITES:
        if not rest or rest[0] not in SUITES[command]:
            return None
        fields["what"], rest = rest[0], rest[1:]
    if len(rest) % 2:
        return None
    given = {}
    for flag, text in zip(rest[::2], rest[1::2]):
        name = flag[2:]
        if (flag[:2] != "--" or name not in OPTIONS or name in given
                or text.startswith("-")):
            return None
        option = OPTIONS[name]
        try:
            given[name] = value = option.type(text)
        except ValueError:
            return None
        if option.choices is not None and value not in option.choices:
            return None
    if sum(name in given for name in SOURCES) != 1:
        return None
    defaults = {name: option.default for name, option in OPTIONS.items()}
    return SimpleNamespace(**fields, **(defaults | given))


def add_command_args(p: argparse.ArgumentParser, command: str) -> None:
    """A command's arguments: its suite, then ``OPTIONS``, the sources as a
    required mutually exclusive group."""
    if command in SUITES:
        p.add_argument("what", choices=tuple(SUITES[command]))
    src = p.add_mutually_exclusive_group(required=True)
    for name, option in OPTIONS.items():
        (src if name in SOURCES else p).add_argument("--" + name, **option._asdict())


@functools.cache
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of ``command`` alone, else the full parser with one
    subparser per command; each is built on first use and kept for the
    process.  A command's parser prints what its subparser would."""
    import argparse

    if command is not None:
        parser = argparse.ArgumentParser(prog="fellkit " + command)
        add_command_args(parser, command)
        parser.set_defaults(command=command)
        return parser
    parser = argparse.ArgumentParser(
        prog="fellkit",
        description="Block-matrix Fell bundles over finite pair groupoids: "
        "build models and verify the structure theory numerically.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary in COMMANDS.items():
        add_command_args(sub.add_parser(name, help=summary), name)
    return parser


@functools.cache
def freeze_start_up_heap() -> None:
    """Keep what is alive at the first command (interpreter, numpy, fellkit)
    out of every later collection; it lives until exit anyway."""
    gc.freeze()


def main(argv=None) -> int:
    freeze_start_up_heap()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = read_argv(argv)
    if args is None and argv and argv[0] in COMMANDS:
        args, stray = build_parser(argv[0]).parse_known_args(argv[1:])
        args = None if stray else args
    if args is None:
        # top-level help, a missing or unknown command, stray arguments:
        # the full parser prints its usage and exits
        args = build_parser().parse_args(argv)
    try:
        eps = resolve_eps(args)
        model, generator = load_model(args, eps)

        if args.command == "generate":
            emit(model_to_json(model, generator), args)
            return 0
        built = pipeline(model, generator, eps)
        if args.command == "check":
            doc = run_check(args.what, built)
        elif args.command == "phi":
            doc = run_phi(args.what, built)
        else:
            doc = run_report(built, generator)
        emit(doc, args)
        return 0 if doc["pass"] else 1
    except (UsageError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # model data that parses but fails a mathematical contract
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
