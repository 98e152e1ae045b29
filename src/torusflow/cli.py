"""Command-line interface: closure, verify, sample.

Exit codes:
    0  success
    2  problem file or sample settings failed to parse or validate, or the
       problem file could not be read (it is missing, a directory, or not
       UTF-8 text) or an output file could not be written
    3  symbolic analysis unsupported for this input (graph pieces, or a
       complex branch without rays under the real statement)
    4  internal invariant violation (a bug), an input the exact engine
       cannot handle yet, or a containment search needing more than
       verifier.MAX_TRANSLATES candidate translates (or 16 times as many
       enumerated lattice points)
    5  verification failed (report still written)
    6  a sampling shell starved (the variety may be bounded)
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (
    InternalInvariantError,
    ShellStarved,
    SymbolicUnsupported,
    TorusflowError,
)
from .flow import closure_description, flow_set
from .specfile import load_problem
from .verifier import run_verification, sample_far_points, write_sample_csv

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SYMBOLIC = 3
EXIT_INTERNAL = 4
EXIT_VERIFY_FAIL = 5
EXIT_STARVED = 6


def _unusable(action, path, exc):
    """Exit 2 with one line: ``path`` could not be read or written."""
    if isinstance(exc, UnicodeDecodeError):
        reason = f"not {exc.encoding} text"
    else:
        reason = exc.strerror or exc
    print(f"error: cannot {action} {path}: {reason}", file=sys.stderr)
    raise SystemExit(EXIT_PARSE)


def _load(path):
    try:
        return load_problem(path)
    except (OSError, UnicodeDecodeError) as exc:
        _unusable("read", path, exc)
    except TorusflowError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _config(spec, args):
    """The spec's sample config with the command-line overrides, validated."""
    cfg = spec.sample_config
    for arg, name in (
        ("seed", "seed"), ("count", "count"), ("eps", "grid_eps"), ("tol", "tolerance")
    ):
        value = getattr(args, arg, None)
        if value is not None:
            setattr(cfg, name, value)
    try:
        cfg.validate()
        cfg.validate_pieces(len(spec.variety.pieces))
        cfg.validate_lattice(spec.lattice)
    except TorusflowError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)
    return cfg


def _write_json(path, payload):
    # one write: json.dump writes every indented token on its own
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        _unusable("write", path, exc)


def cmd_closure(args):
    spec = _load(args.spec)
    try:
        flow = flow_set(spec.variety, spec.lattice)
    except SymbolicUnsupported as exc:
        print(
            f"error: {exc}\nhint: add a [flow] section with the predicted "
            "components and run `torusflow verify` instead",
            file=sys.stderr,
        )
        return EXIT_SYMBOLIC

    out_path = args.json or (args.spec + ".closure.json")
    _write_json(out_path, closure_description(spec.variety, flow))

    print(f"mode: {flow.mode}")
    if flow.span_condition:
        print(f"span condition: {flow.span_condition}")
    print(f"components: {len(flow.components)}")
    for idx, comp in enumerate(flow.components):
        torus = comp.torus.torus_dim if comp.torus else "-"
        print(
            f"  [{idx}] base={comp.base.kind} dim_C={comp.dim_C} "
            f"torus_dim={torus}"
        )
    if flow.is_empty:
        print("flow set is empty; pi(X) is closed")
    print(f"report written to {out_path}")
    return EXIT_OK


def _prediction(spec):
    if spec.predicted is not None:
        return spec.predicted_flow()
    return flow_set(spec.variety, spec.lattice)


def cmd_verify(args):
    spec = _load(args.spec)
    cfg = _config(spec, args)

    try:
        predicted = _prediction(spec)
    except SymbolicUnsupported as exc:
        print(
            f"error: {exc}\nhint: supply a [flow] section with the predicted "
            "components",
            file=sys.stderr,
        )
        return EXIT_SYMBOLIC

    try:
        report = run_verification(spec.variety, spec.lattice, predicted, cfg)
    except ShellStarved as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STARVED

    out_path = args.spec + ".report.json"
    _write_json(out_path, report.to_dict())
    status = "PASS" if report.passed else "FAIL"
    print(
        f"{status}: containment={report.max_containment_distance:.3e} "
        f"(tol {cfg.tolerance:g}), coverage="
        + ",".join(f"{f:.3f}" for f in report.coverage)
        + (f" (threshold {cfg.coverage_threshold:g})" if report.coverage else "")
    )
    print(f"escaped mass: {report.escaped_mass:.3f}")
    if report.mismatch_flag:
        print("mismatch: prediction empty but samples accumulate in-window")
    print(f"report written to {out_path}")
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def cmd_sample(args):
    spec = _load(args.spec)
    cfg = _config(spec, args)
    try:
        shells = sample_far_points(spec.variety, cfg, spec.lattice)
    except ShellStarved as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STARVED
    try:
        predicted = _prediction(spec)
    except TorusflowError:
        predicted = None
    try:
        rows = write_sample_csv(args.out, shells, spec.lattice, predicted, cfg)
    except OSError as exc:
        _unusable("write", args.out, exc)
    print(f"wrote {rows} rows to {args.out}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="torusflow",
        description=(
            "Closures of variety images in torus quotients: exact flow-set "
            "computation and numeric verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_closure = sub.add_parser("closure", help="compute the flow-set decomposition")
    p_closure.add_argument("spec", help="problem description file")
    p_closure.add_argument("--json", help="path for the JSON report")
    p_closure.set_defaults(func=cmd_closure)

    p_verify = sub.add_parser("verify", help="verify a prediction by far sampling")
    p_verify.add_argument("spec")
    p_verify.add_argument("--seed", type=int)
    p_verify.add_argument("--count", type=int)
    p_verify.add_argument("--eps", type=float, help="coverage grid size")
    p_verify.add_argument("--tol", type=float, help="containment tolerance")
    p_verify.set_defaults(func=cmd_verify)

    p_sample = sub.add_parser("sample", help="dump far samples to CSV")
    p_sample.add_argument("spec")
    p_sample.add_argument("--out", required=True)
    p_sample.add_argument("--seed", type=int)
    p_sample.add_argument("--count", type=int)
    p_sample.set_defaults(func=cmd_sample)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InternalInvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except TorusflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
