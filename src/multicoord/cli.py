"""Command-line entry point.

    multicoord build        --config run.json [--out DIR]
    multicoord detect       --config run.json --mode MODE [--layer L] [--seed N]
    multicoord compare      --config run.json --ref B --other A
    multicoord characterize --config run.json --ref B --other A
    multicoord synth        --config run.json [--seed N]
    multicoord report       [--out DIR | --config run.json]

Exit codes: 0 success, 1 usage or config error, 2 data error. --seed
overrides the config's detection seed for detect and the synth seed for
synth; --out overrides the output directory.
Both overrides are part of the effective config, so they change the config
hash embedded in the reports. Only detect and synth read a seed, so only
they take --seed; --layer goes with --mode mono alone.

A CLI process runs OpenBLAS on one thread unless OPENBLAS_NUM_THREADS
says otherwise: the LAPACK calls here are small (the Lanczos steps' eigh
of a tridiagonal matrix of at most 128 rows), and on more threads they
wait on thread hand-offs. The variable is set before numpy loads, so a
caller's own setting wins.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace

from .errors import ConfigError, DataError

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before .pipeline loads numpy
from .pipeline import (DETECT_MODES, RunConfig, run_build, run_characterize,  # noqa: E402
                       run_compare, run_detect, run_report, run_synth)

logger = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors exit with code 1, not argparse's
    default 2 (2 is reserved for data errors here).
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="multicoord",
        description="Detect and compare multimodal coordinated behavior "
                    "in action logs.")
    parser.add_argument("--verbose", "-v", action="store_true",
                        help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    def paths(p, config_required=True):
        p.add_argument("--config", required=config_required,
                       help="JSON run configuration")
        p.add_argument("--out", default=None,
                       help="override the configured output directory")

    def seeded(p):
        paths(p)
        p.add_argument("--seed", type=int, default=None,
                       help="override the configured seed")

    paths(sub.add_parser("build", help="ingest events, build and filter the network"))
    p_detect = sub.add_parser("detect", help="run one operationalization")
    seeded(p_detect)
    p_detect.add_argument("--mode", required=True, choices=DETECT_MODES)
    p_detect.add_argument("--layer", default=None,
                          help="layer for --mode mono, the only mode that takes one")
    p_compare = sub.add_parser("compare", help="overlap, matching, labels, NMI")
    paths(p_compare)
    p_compare.add_argument("--ref", required=True,
                           help="reference approach (side B)")
    p_compare.add_argument("--other", required=True,
                           help="baseline approach (side A)")
    p_char = sub.add_parser("characterize",
                            help="metric vectors, cosine, PCA, rank tests")
    paths(p_char)
    p_char.add_argument("--ref", required=True)
    p_char.add_argument("--other", required=True)
    seeded(sub.add_parser("synth", help="generate a synthetic log + ground truth"))
    p_report = sub.add_parser("report", help="summarize an output directory")
    paths(p_report, config_required=False)
    return parser


def _load_config(args) -> RunConfig:
    cfg = RunConfig.from_file(args.config)
    if args.out is not None:
        cfg.out = args.out
    if getattr(args, "seed", None) is not None:  # only detect and synth take one
        try:  # replace checks the seed as the config's own is checked
            if args.command == "detect":
                cfg.detection = replace(cfg.detection, seed=args.seed)
            elif cfg.synth is not None:  # synth, which refuses a config without one
                cfg.synth = replace(cfg.synth, seed=args.seed)
        except ValueError as exc:
            raise ConfigError(f"--seed: {exc}") from None
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)
    try:
        if args.command == "report":
            if args.config is None and args.out is None:
                raise ConfigError("report needs --out or --config")
            out = args.out if args.out is not None else RunConfig.from_file(args.config).out
            sys.stdout.write(run_report(out))
            return 0
        cfg = _load_config(args)
        if args.command == "build":
            run_build(cfg)
        elif args.command == "detect":
            for summary in run_detect(cfg, args.mode, layer=args.layer):
                scope = summary.get("scope")
                ncom = summary.get("n_communities")
                print(f"detect {scope}: {ncom} communities")
        elif args.command == "compare":
            summary = run_compare(cfg, args.ref, args.other)
            c = summary["communities"]
            print(f"compare {args.ref} vs {args.other}: communities "
                  f"lost/common/gained = {c['lost']}/{c['common']}/{c['gained']}, "
                  f"nmi = {summary['nmi']:.4f}")
        elif args.command == "characterize":
            summary = run_characterize(cfg, args.ref, args.other)
            print(f"characterize {summary['comparison']}: "
                  f"{summary['n_communities']} communities, "
                  f"{summary['n_nodes']} labeled nodes")
        else:  # synth
            paths = run_synth(cfg)
            print(f"synth: wrote {paths['events']} and {paths['ground_truth']}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
