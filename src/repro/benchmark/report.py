"""One-shot benchmark report: run a set of experiments, write markdown.

``python -m repro.benchmark.report --out REPORT.md`` regenerates the chosen
experiments against one shared context and writes a single document — the
"results" page of the public repository.
"""

from __future__ import annotations

import argparse
import sys

from repro.benchmark.context import BenchmarkContext
from repro.benchmark.runner import EXPERIMENTS, run_experiment
from repro.core.models import train_examples
from repro.obs import (
    RunManifest,
    Tracer,
    add_observability_flags,
    configure_telemetry,
    telemetry,
)
from repro.obs.export import write_json

#: Experiments cheap enough for the default report (heavier ones opt-in).
DEFAULT_EXPERIMENTS = (
    "table1",
    "table3",
    "table17",
    "table18",
    "figure7",
    "labeling",
    "leaderboard",
)


def build_report(
    context: BenchmarkContext, experiments=DEFAULT_EXPERIMENTS, manifest=None
) -> str:
    """Run the experiments and render one markdown report."""
    sections = [
        "# Benchmark report — ML feature type inference",
        "",
        f"- labeled corpus: {context.n_examples} columns "
        f"(seed {context.seed})",
        f"- Random Forest: {context.rf_estimators} trees; "
        f"CNN: {context.cnn_epochs} epochs",
        "",
    ]
    timer = Tracer()
    for name in experiments:
        with timer.span(f"experiment.{name}") as sp:
            body, _shape_failures = run_experiment(name, context)
        elapsed = sp.wall_s
        if manifest is not None:
            manifest.add_experiment(name, wall_s=sp.wall_s, cpu_s=sp.cpu_s)
        sections.append(f"## {name} ({elapsed:.1f}s)")
        sections.append("")
        sections.append("```")
        sections.append(body.strip())
        sections.append("```")
        sections.append("")
    return "\n".join(sections)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-report", description="Write a markdown benchmark report."
    )
    parser.add_argument("--out", default="REPORT.md")
    parser.add_argument("--scale", type=train_examples, default=1200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--experiments", nargs="*", default=list(DEFAULT_EXPERIMENTS),
        choices=sorted(EXPERIMENTS),
    )
    add_observability_flags(parser)
    args = parser.parse_args(argv)

    observing = configure_telemetry(args)

    manifest = RunManifest(
        command="repro-report",
        argv=list(argv) if argv is not None else sys.argv[1:],
        seed=args.seed,
        scale=args.scale,
    )
    context = BenchmarkContext(n_examples=args.scale, seed=args.seed)
    report = build_report(context, tuple(args.experiments), manifest=manifest)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(report)
    print(f"wrote {args.out} ({len(report.splitlines())} lines)")

    if observing:
        if args.metrics_out:
            write_json(args.metrics_out, telemetry.metrics.snapshot())
        if args.manifest:
            manifest.finalize(telemetry)
            manifest.write(args.manifest)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
