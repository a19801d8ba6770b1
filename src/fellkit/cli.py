"""Command-line front door: build models, run the verification suites.

Commands:

* ``generate`` — write a model JSON from a preset or input file;
* ``check {axioms|pair|cocycle|theorem-3.13|generation}`` — run one suite;
* ``phi {build|readoff|roundtrip}`` — the embedding-invariant pipeline;
* ``report`` — every applicable suite in one document.

Exit codes: 0 all checks passed, 1 a mathematical check failed, 2 usage or
parse error.  A suite that raises on its model reports a failed check with
the error, and the other suites of a report still run.  Reports are
canonical JSON (sorted keys), byte-identical for identical config and seed.
The tolerance comes from --eps, else the FELLKIT_EPS environment variable,
else 1e-9.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass

import numpy as np

from .cocycle import cocycle_identity_residual, twist_is_admissible
from .dynamics import (
    a_dynamical_generation_check,
    check_unitary_normalizer_theorem,
    covariance_group_from_frame,
)
from .embedding import (
    EmbeddingInvariant,
    IncompleteSupportError,
    bridge_round_trip,
    cartan_from_fell_bundle,
    is_orientable,
    phi_from_covariance_group,
    read_off_pair,
)
from .fellbundle import (
    AxiomReport,
    CStarBundle,
    FellBundleModel,
    build_imprimitivity_bundle,
    build_semidirect_bundle,
    check_fell_axioms,
    diagonal_algebra,
    enveloping_algebra,
)
from .groupoid import Bisection, cycle_bisection
from .linalg import DEFAULT_EPS
from .presets import flow_frame, random_symmetric_frame
from .serialize import (
    ParseError,
    cocycle_to_json,
    dumps_canonical,
    loads,
    model_from_json,
    model_to_json,
)

PRESETS = ("fourpoint", "diag-masa", "imprimitivity", "semidirect", "flow")


class UsageError(Exception):
    pass


def build_preset(
    name: str, args, rng: np.random.Generator, eps: float
) -> tuple[FellBundleModel, Bisection | None]:
    if name == "fourpoint":
        model = build_semidirect_bundle(CStarBundle((1, 1, 1, 1)), eps=eps)
        return model, cycle_bisection(4)
    if name == "diag-masa":
        n = args.n
        model = build_semidirect_bundle(CStarBundle((1,) * n), eps=eps)
        return model, cycle_bisection(n)
    if name == "imprimitivity":
        dims = tuple(int(d) for d in args.dims.split(","))
        return build_imprimitivity_bundle(dims), None
    if name == "semidirect":
        n, dim = args.points, args.dim
        frame = random_symmetric_frame(n, dim, rng)
        model = build_semidirect_bundle(CStarBundle((dim,) * n), frame=frame, eps=eps)
        return model, cycle_bisection(n)
    if name == "flow":
        n, dim = args.points, args.dim
        frame, g = flow_frame(n, dim, rng)
        model = build_semidirect_bundle(CStarBundle((dim,) * n), frame=frame, eps=eps)
        return model, g
    raise UsageError(f"unknown preset {name!r}")


def load_model(args, rng, eps) -> tuple[FellBundleModel, Bisection | None]:
    if args.preset is not None:
        return build_preset(args.preset, args, rng, eps)
    with open(args.input, encoding="utf-8") as f:
        return model_from_json(loads(f.read()), eps=eps)


def _need_generator(generator: Bisection | None) -> Bisection:
    if generator is None:
        raise UsageError("this command needs a model with a generator")
    return generator


def _support_json(phi: EmbeddingInvariant, eps: float) -> list[list[int]]:
    return sorted([i + 1, j + 1] for (i, j) in phi.block_support(eps))


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


@dataclass
class AxiomRun:
    """One report's axiom suite: the pair stage reuses it and its rng."""

    rng: np.random.Generator
    report: AxiomReport | None = None


@isolated("")
def run_check(
    what: str, model, generator, eps: float, seed: int,
    axiom_run: AxiomRun | None = None,
) -> dict:
    rng = np.random.default_rng(seed) if axiom_run is None else axiom_run.rng
    if what == "axioms":
        report = check_fell_axioms(model, sample_count=200, eps=eps, rng=rng)
        if axiom_run is not None:
            axiom_run.report = report
        return {
            "check": "axioms",
            "pass": report.all_passed,
            "residual": max(report.residuals),
            "details": report.as_dict(),
        }
    if what == "pair":
        _, classification, _ = cartan_from_fell_bundle(
            model, eps=eps, rng=rng, axioms=axiom_run and axiom_run.report
        )
        return {
            "check": "pair",
            "pass": classification.verdict in ("diagonal", "cartan"),
            "residual": 0.0,
            "details": classification.as_dict(),
        }
    if what == "cocycle":
        if model.twist is not None:
            residual = cocycle_identity_residual(model.twist)
            admissible = twist_is_admissible(model.twist, eps)
            return {
                "check": "cocycle",
                "pass": residual <= eps and admissible,
                "residual": residual,
                "details": {"source": "model twist", "admissible": admissible},
            }
        g = _need_generator(generator)
        Gs = covariance_group_from_frame(g, model)
        readoff = read_off_pair(phi_from_covariance_group(Gs, eps), eps)
        residual = cocycle_identity_residual(readoff.omega)
        return {
            "check": "cocycle",
            "pass": residual <= eps,
            "residual": residual,
            "details": {
                "source": "extracted from generator orbit",
                "omega": cocycle_to_json(readoff.omega),
            },
        }
    if what == "theorem-3.13":
        result = check_unitary_normalizer_theorem(model, samples=100, eps=eps, rng=rng)
        return {
            "check": "theorem-3.13",
            "pass": result["pass"],
            "residual": 0.0,
            "details": result,
        }
    if what == "generation":
        g = _need_generator(generator)
        Gs = covariance_group_from_frame(g, model)
        B = enveloping_algebra(model)
        return {
            "check": "generation",
            "pass": a_dynamical_generation_check(Gs, diagonal_algebra(model), B, eps),
            "residual": 0.0,
            "details": {"generator_order": Gs.flow.order, "target_dim": B.dim()},
        }
    raise UsageError(f"unknown check {what!r}")


@isolated("phi-")
def run_phi(what: str, model, generator, eps: float, seed: int) -> dict:
    g = _need_generator(generator)
    Gs = covariance_group_from_frame(g, model)
    try:
        phi = phi_from_covariance_group(Gs, eps)
    except IncompleteSupportError as exc:
        return {
            "check": f"phi-{what}",
            "pass": False,
            "error": "generator is not minimal",
            "missing_pairs": sorted([x + 1, y + 1] for (x, y) in exc.missing),
        }
    if what == "build":
        dims = Gs.fibre_dims
        sigma = EmbeddingInvariant(Gs.elements[0].U, dims)
        sigma2 = EmbeddingInvariant(
            Gs.elements[1 % len(Gs.elements)].U, dims
        )
        orientable = is_orientable(phi, eps)
        return {
            "check": "phi-build",
            "pass": orientable,
            "residual": 0.0,
            "phi": phi.phi,
            "block_dims": list(dims),
            "block_support": _support_json(phi, eps),
            "generator_support": _support_json(sigma, eps),
            "generator_squared_support": _support_json(sigma2, eps),
            "orientable": orientable,
        }
    if what == "readoff":
        readoff = read_off_pair(phi, eps)
        return {
            "check": "phi-readoff",
            "pass": True,
            "residual": 0.0,
            "block_dims": list(readoff.A.block_dims),
            "ambient_dim": readoff.B.ambient_dim,
            "orientable": True,
            "normalizer_sample_size": len(readoff.normalizer_sample),
            "omega": None if readoff.omega is None
            else cocycle_to_json(readoff.omega),
            "note": readoff.note,
        }
    if what == "roundtrip":
        report = bridge_round_trip(Gs, eps)
        return {
            "check": "phi-roundtrip",
            "pass": report["pass"],
            "residual": max(
                report["omega_residual"],
                report["expectation_residual"],
                report["sigma_residual"],
                report["phi_residual"],
            ),
            "details": report,
        }
    raise UsageError(f"unknown phi subcommand {what!r}")


def run_report(model, generator, eps: float, seed: int) -> dict:
    axiom_run = AxiomRun(rng=np.random.default_rng(seed))
    checks = [
        run_check("axioms", model, generator, eps, seed, axiom_run=axiom_run),
        run_check("pair", model, generator, eps, seed, axiom_run=axiom_run),
    ]
    if generator is not None:
        if model.twist is not None or model.frame is not None:
            checks.append(run_check("cocycle", model, generator, eps, seed))
        if len(set(model.fibre_dims)) == 1:
            checks.append(run_check("theorem-3.13", model, generator, eps, seed))
        checks.append(run_check("generation", model, generator, eps, seed))
        if model.frame is not None:
            checks.append(run_phi("roundtrip", model, generator, eps, seed))
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
            for k in sorted(d):
                v = d[k]
                if isinstance(v, (dict, list)):
                    lines.append(f"{pad}{k}:")
                    walk(v, indent + 1)
                else:
                    lines.append(f"{pad}{k}: {v}")
        elif isinstance(d, list):
            for v in d:
                if isinstance(v, (dict, list)):
                    walk(v, indent)
                    lines.append("")
                else:
                    lines.append(f"{pad}- {v}")
        else:
            lines.append(f"{pad}{d}")

    walk(doc)
    return "\n".join(lines).rstrip() + "\n"


def emit(doc: dict, args) -> None:
    text = render_text(doc) if args.format == "text" else dumps_canonical(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def resolve_eps(args) -> float:
    if args.eps is not None:
        return float(args.eps)
    env = os.environ.get("FELLKIT_EPS")
    if env is not None:
        try:
            return float(env)
        except ValueError as exc:
            raise UsageError(f"bad FELLKIT_EPS value {env!r}") from exc
    return DEFAULT_EPS


def add_model_args(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", choices=PRESETS)
    src.add_argument("--input", metavar="MODEL_JSON")
    p.add_argument("--n", type=int, default=4, help="diag-masa point count")
    p.add_argument("--dims", default="2,1,3", help="imprimitivity block dims")
    p.add_argument("--points", type=int, default=4,
                   help="semidirect/flow point count")
    p.add_argument("--dim", type=int, default=2, help="semidirect/flow fibre dim")


def add_common_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eps", type=float, default=None,
                   help="tolerance (overrides FELLKIT_EPS)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("text", "json"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fellkit",
        description="Block-matrix Fell bundles over finite pair groupoids: "
        "build models and verify the structure theory numerically.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a model JSON")
    add_model_args(p_gen)
    add_common_args(p_gen)

    p_check = sub.add_parser("check", help="run one verification suite")
    p_check.add_argument(
        "what",
        choices=("axioms", "pair", "cocycle", "theorem-3.13", "generation"),
    )
    add_model_args(p_check)
    add_common_args(p_check)

    p_phi = sub.add_parser("phi", help="embedding-invariant pipeline")
    p_phi.add_argument("what", choices=("build", "readoff", "roundtrip"))
    add_model_args(p_phi)
    add_common_args(p_phi)

    p_rep = sub.add_parser("report", help="run every applicable suite")
    add_model_args(p_rep)
    add_common_args(p_rep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        eps = resolve_eps(args)
        rng = np.random.default_rng(args.seed)
        model, generator = load_model(args, rng, eps)

        if args.command == "generate":
            emit(model_to_json(model, generator), args)
            return 0
        if args.command == "check":
            doc = run_check(args.what, model, generator, eps, args.seed)
        elif args.command == "phi":
            doc = run_phi(args.what, model, generator, eps, args.seed)
        else:
            doc = run_report(model, generator, eps, args.seed)
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
