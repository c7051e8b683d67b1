"""repro-infer: command-line feature type inference for CSV files.

Usage:
    repro-infer data.csv                    # train a default model, infer
    repro-infer data.csv --model rf.model   # reuse a saved model artifact
    repro-infer data.csv --save rf.model    # persist the trained model
    repro-infer data.csv --json             # machine-readable output
    repro-infer data.csv --server URL       # delegate to a repro-serve node
    repro-infer big.csv --stream            # cap distinct values per column

The first run trains the benchmark's Random Forest on a synthetic labeled
corpus (~a minute); save the artifact once and reuse it for instant startup —
or point ``--server`` at a running ``repro-serve`` instance, which keeps the
model resident and batches concurrent invocations (see docs/serving.md).

Every run profiles the CSV in one streaming pass through :mod:`repro.sketch`
without materializing it.  The default pass is exact: it keeps every
distinct value, so its statistics and predictions equal the batch kernel's
on the whole table, and its memory grows with the distinct values rather
than the file.  ``--stream`` caps the distinct values tracked per column
(``--distinct-cap``), so memory stays bounded by the chunk size and the cap
regardless of file size; a column past the cap reports the cap as its
distinct count (see docs/performance.md for the memory model and the
stats-parity contract).  With ``--server`` the file is always uploaded from
disk as-is, and the server profiles it the way ``--stream`` does.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.core.models import (
    DEFAULT_SEED,
    DEFAULT_TRAIN_EXAMPLES,
    DEFAULT_TREES,
    RandomForestModel,
    train_default_forest,
    train_examples,
)
from repro.core.persistence import load_model, model_fingerprint, save_model
from repro.core.pipeline import TypeInferencePipeline
from repro.faults import add_fault_flags, configure_faults
from repro.obs import (
    RunManifest,
    add_observability_flags,
    configure_telemetry,
    telemetry,
)
from repro.obs.export import write_json, write_spans_jsonl
from repro.core.featurize import ProfileError
from repro.sketch import (
    DEFAULT_CHUNK_ROWS,
    DEFAULT_DISTINCT_CAP,
    SketchConfig,
    profile_csv_stream,
)
from repro.tabular.csv_io import DEFAULT_SNIFF_CHARS, CSVReadError
# Unused here; perfbench's traced pass wraps repro.cli.load_csv_table.
from repro.tabular.csv_io import load_csv_table  # noqa: F401


def _obtain_model(args, manifest: RunManifest) -> RandomForestModel:
    if args.model and os.path.exists(args.model):
        with telemetry.span("infer.load_model", path=args.model):
            model = load_model(args.model)
        manifest.extra["model_fingerprint"] = model_fingerprint(args.model)
        return model
    with telemetry.span(
        "infer.train", n_examples=args.train_examples, trees=args.trees
    ):
        return train_default_forest(
            args.train_examples, args.trees, args.seed
        )


def _render(predictions: list[dict], as_json: bool) -> str:
    """Render prediction dicts (the :meth:`ColumnPrediction.as_dict` shape).

    Shared by the local and ``--server`` paths so both modes print
    byte-identical output for the same predictions.
    """
    if as_json:
        return json.dumps(predictions, indent=2)
    width = max(len(p["column"]) for p in predictions)
    lines = [
        f"{'column':<{width}}  {'feature type':<18} {'confidence':<10} review"
    ]
    for p in predictions:
        flag = "YES" if p["needs_review"] else ""
        lines.append(
            f"{p['column']:<{width}}  {p['feature_type']:<18} "
            f"{p['confidence']:<10.2f} {flag}"
        )
    return "\n".join(lines)


def _infer_via_server(args, observing: bool) -> int:
    from repro.serve.client import ServeClient, ServeClientError

    client = ServeClient(args.server)
    server_model = getattr(args, "server_model", None)
    table = os.path.splitext(os.path.basename(args.csv))[0]
    try:
        # The client mints the request's traceparent inside its own
        # "client.request" span; that span (exported via --trace-out) is
        # the root the server's spans hang off.  The file's bytes go up
        # as-is: the server decodes them exactly as decode_csv_bytes does
        # and profiles them chunk by chunk.
        with telemetry.span("infer.server", table=table, server=args.server):
            response = client.infer_csv_file(
                args.csv, table=table, deadline_ms=args.deadline_ms,
                model=server_model,
            )
    except OSError as exc:
        print(f"repro-infer: cannot read {args.csv!r}: {exc}", file=sys.stderr)
        return 2
    except ServeClientError as exc:
        print(f"repro-infer: {exc}", file=sys.stderr)
        return 3
    finally:
        if observing:
            _write_server_mode_telemetry(args)
    if response.get("degraded"):
        print(
            "repro-infer: warning: server answered in degraded (rule-based) "
            "mode; primary model not loaded yet",
            file=sys.stderr,
        )
    if response.get("trace_id"):
        telemetry.info("infer.trace", trace_id=response["trace_id"])
    print(_render(response["predictions"], args.as_json))
    return 0


def _write_server_mode_telemetry(args) -> None:
    if args.metrics_out:
        write_json(args.metrics_out, telemetry.metrics.snapshot())
    if getattr(args, "trace_out", None):
        write_spans_jsonl(args.trace_out, telemetry.spans)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-infer",
        description="Infer ML feature types for every column of a CSV file.",
    )
    parser.add_argument("csv", help="path to the CSV file")
    parser.add_argument(
        "--model", default=None,
        help="saved model artifact to load (trains a fresh model if absent)",
    )
    parser.add_argument(
        "--save", default=None, help="save the (trained) model artifact here"
    )
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit JSON instead of a table")
    parser.add_argument("--trees", type=int, default=DEFAULT_TREES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--train-examples", type=train_examples, default=DEFAULT_TRAIN_EXAMPLES
    )
    streaming = parser.add_argument_group("streaming")
    streaming.add_argument(
        "--stream", action="store_true",
        help="cap the distinct values tracked per column, so memory stays "
             "bounded whatever the file's size (the default pass keeps "
             "every distinct value and is exact; --server always uploads "
             "the file as-is and the server always caps)",
    )
    streaming.add_argument(
        "--chunk-rows", type=int, default=None, metavar="N",
        help="rows per streamed chunk (default 16384; implies --stream)",
    )
    streaming.add_argument(
        "--distinct-cap", type=int, default=None, metavar="N",
        help="distinct values tracked per column before the sketch spills "
             "(default 65536; implies --stream)",
    )
    server = parser.add_argument_group("server mode")
    server.add_argument(
        "--server", default=None, metavar="URL",
        help="delegate inference to a running repro-serve instance "
             "(e.g. http://127.0.0.1:8099); no local model is loaded",
    )
    server.add_argument(
        "--deadline-ms", type=float, default=None, metavar="MS",
        help="per-request deadline when using --server",
    )
    server.add_argument(
        "--server-model", default=None, metavar="NAME",
        help="route to one registered model on the server (X-Repro-Model "
             "header; default: the server's default route)",
    )
    add_fault_flags(parser)
    add_observability_flags(parser)
    args = parser.parse_args(argv)

    if not os.path.exists(args.csv):
        parser.error(f"no such file: {args.csv}")
    if args.chunk_rows is not None or args.distinct_cap is not None:
        args.stream = True

    observing = configure_telemetry(args)
    configure_faults(args)

    if args.server:
        return _infer_via_server(args, observing)

    manifest = RunManifest(
        command="repro-infer",
        argv=list(argv) if argv is not None else sys.argv[1:],
        seed=args.seed,
        scale=args.train_examples,
    )

    # Both paths profile the file in one streaming pass.  The default one
    # keeps every distinct value and sniffs the delimiter from the first 20
    # lines however long they are, so its profiles are exactly the batch
    # kernel's; --stream caps the distinct values and the sniff prefix.
    # Either way the model trains/loads *after* ingestion, so an unreadable
    # file never costs a model fit.
    if args.stream:
        config = SketchConfig(
            distinct_cap=args.distinct_cap
            if args.distinct_cap is not None
            else DEFAULT_DISTINCT_CAP
        )
        sniff_chars = DEFAULT_SNIFF_CHARS
    else:
        config = SketchConfig(distinct_cap=sys.maxsize)
        sniff_chars = sys.maxsize
    try:
        with telemetry.span("infer.stream_profile", path=args.csv):
            profiles = profile_csv_stream(
                args.csv,
                config=config,
                chunk_rows=args.chunk_rows
                if args.chunk_rows is not None
                else DEFAULT_CHUNK_ROWS,
                sniff_chars=sniff_chars,
            )
    except (CSVReadError, ProfileError) as exc:
        print(f"repro-infer: {exc}", file=sys.stderr)
        return 2

    model = _obtain_model(args, manifest)
    if args.save:
        save_model(model, args.save)

    predictions = TypeInferencePipeline(model).predict_profiles(profiles)

    if observing:
        if args.metrics_out:
            write_json(args.metrics_out, telemetry.metrics.snapshot())
        if args.trace_out:
            write_spans_jsonl(args.trace_out, telemetry.spans)
        if args.manifest:
            manifest.finalize(telemetry)
            manifest.write(args.manifest)

    print(_render([p.as_dict() for p in predictions], args.as_json))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
