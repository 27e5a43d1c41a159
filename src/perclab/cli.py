"""Command-line front end.

Subcommands: sample, percolate, analyze, expansion, theory, experiment,
verify.  Exit codes: 0 on success, 1 when a verification fails or an
input is unusable, 2 on usage errors (argparse's convention).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from perclab import theory
from perclab.acceptance import deletion_uniformity, matching_uniformity, run_criteria
from perclab.decomposition import decompose, kernel, two_core
from perclab.expansion import certify
from perclab.harness import (
    ExperimentConfig,
    read_config,
    run_experiment,
    write_csv,
)
from perclab.pairing import (
    SamplingFailureError,
    parse_configuration,
    parse_multigraph,
    project,
    sample_configuration,
    sample_simple_regular,
    DegreeSequence,
    format_configuration,
)
from perclab.percolation import (
    DeletionParams,
    format_outcome,
    parse_outcome,
    percolate,
)


def _read_input_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _graph_from_text(text: str):
    """Accept an outcome, a configuration, or a bare edge list."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if any(ln.startswith("deleted:") for ln in lines):
        out = parse_outcome(text)
        return project(out.survivor)
    if lines and len(lines[0].split()) == 1:
        return parse_multigraph(text)
    return project(parse_configuration(text))


def cmd_sample(args) -> int:
    if args.multigraph:
        config = sample_configuration(
            DegreeSequence.regular(args.n, args.d), args.seed
        )
    else:
        config, _, rejections = sample_simple_regular(args.n, args.d, args.seed)
        print(f"# rejections before a simple projection: {rejections}", file=sys.stderr)
    _write_output(format_configuration(config), args.output)
    return 0


def cmd_percolate(args) -> int:
    config = parse_configuration(_read_input_text(args.input))
    params = DeletionParams(config.n, alpha=args.alpha, p=args.p, seed=args.seed)
    outcome = percolate(config, params)
    _write_output(format_outcome(outcome), args.output)
    return 0


def cmd_analyze(args) -> int:
    g = _graph_from_text(_read_input_text(args.input))
    dec = decompose(g)
    _write_output(json.dumps(dec.report(), indent=1, sort_keys=True) + "\n", args.output)
    return 0


def cmd_expansion(args) -> int:
    g = _graph_from_text(_read_input_text(args.input))
    run = None
    core = two_core(g)
    if core.size:
        core_g, _ = core.subgraph()
        run = kernel(core_g).longest_run
    cert = certify(g, exact=not args.bounds, longest_run=run, seed=args.seed)
    _write_output(json.dumps(cert.to_dict(), indent=1, sort_keys=True) + "\n", args.output)
    return 0


def cmd_theory(args) -> int:
    params = theory.ModelParams(args.n, args.d, args.alpha, args.eta)
    preds = theory.predictions(params, run_lengths=tuple(args.run_length or [2]))
    _write_output(json.dumps(preds.to_dict(), indent=1, sort_keys=True) + "\n", args.output)
    return 0


def cmd_experiment(args) -> int:
    config = read_config(args.config)
    report = run_experiment(config, workers=args.workers)
    os.makedirs(args.outdir, exist_ok=True)
    csv_path = os.path.join(args.outdir, "trials.csv")
    json_path = os.path.join(args.outdir, "report.json")
    write_csv(report, csv_path)
    with open(json_path, "w") as fh:
        fh.write(report.to_json() + "\n")
    agg = report.aggregate
    print(
        f"{config.trials} trials done: mean r={agg.get('mean_r')}, "
        f"mean giant={agg.get('mean_giant_size')}, "
        f"connected {agg.get('fraction_connected', 0):.0%}"
    )
    print(f"wrote {csv_path} and {json_path}")
    return 0


def cmd_uniformity(args) -> int:
    suite = {
        "matching_test": matching_uniformity(args.seed, args.matching_samples),
        "conditional_test": deletion_uniformity(),
    }
    suite["passed"] = all(t["passed"] for t in suite.values())
    _write_output(json.dumps(suite, indent=1, sort_keys=True) + "\n", args.output)
    return 0 if suite["passed"] else 1


def cmd_verify(args) -> int:
    ids = None
    if args.criteria:
        ids = {int(x) for x in args.criteria.split(",")}
    results = run_criteria(ids=ids, stream=sys.stdout)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="perclab",
        description="vertex percolation laboratory for random regular multigraphs",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="sample a d-regular configuration")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument(
        "--multigraph",
        action="store_true",
        help="keep the raw pairing (default: reject until simple)",
    )
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("percolate", help="delete buckets at rate p = n^-alpha")
    p.add_argument("-i", "--input", required=True, help="configuration file ('-' = stdin)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--alpha", type=float, default=None)
    group.add_argument("--p", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_percolate)

    p = sub.add_parser("analyze", help="2-core, kernel, bushes, components")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("expansion", help="expansion certificate for a graph")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--bounds", action="store_true", help="skip the exact search")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_expansion)

    p = sub.add_parser("theory", help="closed-form predictions")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument(
        "--run-length",
        type=int,
        action="append",
        default=None,
        help="degree-2 run lengths to predict counts for (repeatable, default 2)",
    )
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_theory)

    p = sub.add_parser("experiment", help="run a trial batch from a config file")
    p.add_argument("--config", required=True, help="flat key = value file")
    p.add_argument("-o", "--outdir", default=".")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("uniformity", help="sampler uniformity statistics")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--matching-samples", type=int, default=15_000)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_uniformity)

    p = sub.add_parser("verify", help="run the acceptance battery")
    p.add_argument(
        "--criteria", default=None, help="comma-separated subset, e.g. 1,2,10"
    )
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, SamplingFailureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
