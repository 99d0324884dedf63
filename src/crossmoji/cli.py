"""Command-line entry point.

A positional stage selects what runs; `all`, the default, executes the
full pipeline, skipping stages whose artifacts are already complete for
the same configuration.
"""

from __future__ import annotations

import argparse
import sys

from .pipeline import STAGES, ConfigError, Pipeline, PipelineStageError, load_config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossmoji",
        description="Cross-cultural emoji semantics pipeline",
    )
    parser.add_argument("stage", nargs="?", choices=list(STAGES) + ["all"], default="all",
                        metavar="stage",
                        help="ingest | train | project | analyze | report | all (default)")
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--out", default=None, help="override the config's output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, out_dir=args.out)
        manifest = Pipeline(config).run(args.stage)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PipelineStageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, info in manifest.stages.items():
        status = ("not complete" if not info["completed"] else
                  "skipped (cached)" if info["skipped"] else f"{info['seconds']}s")
        print(f"  {name:8s} {status}")
    if manifest.warnings:
        print(f"{len(manifest.warnings)} warning(s); see manifest.json")
    print(f"outputs in {config.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
