"""``repro-serve``: run the batched type-inference service.

Usage::

    repro-serve --model rf.model                  # serve a saved artifact
    repro-serve                                   # train the default forest
    repro-serve --port 0                          # ephemeral port (printed)

The process answers immediately: while the primary model loads (or trains),
``POST /v1/infer`` is served by the rule-based fallback with
``degraded: true``.  SIGTERM/SIGINT triggers a graceful drain: new requests
get 503, queued requests finish, then the process exits 0.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading

from repro.core.models import (
    DEFAULT_SEED,
    DEFAULT_TRAIN_EXAMPLES,
    DEFAULT_TREES,
    train_examples,
)
from repro.faults import add_fault_flags, configure_faults
from repro.obs import (
    RunManifest,
    add_observability_flags,
    telemetry,
)
from repro.obs.export import write_json, write_spans_jsonl
from repro.serve.http import make_server
from repro.serve.registry import ModelRegistry, TrainConfig
from repro.serve.service import InferenceService


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Long-lived batched feature type inference over HTTP.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8099,
        help="TCP port (0 binds an ephemeral port, printed on startup)",
    )
    model = parser.add_argument_group("model")
    model.add_argument(
        "--model", dest="models", action="append", default=None,
        metavar="[NAME=]PATH",
        help="saved model artifact to serve; repeatable — NAME=PATH "
             "registers it under NAME (default name: the file stem). "
             "Without any --model, a default model is trained at startup.",
    )
    model.add_argument(
        "--default-model", default=None, metavar="NAME",
        help="which registered model answers un-routed requests "
             "(default: the first --model)",
    )
    model.add_argument("--trees", type=int, default=DEFAULT_TREES)
    model.add_argument("--seed", type=int, default=DEFAULT_SEED)
    model.add_argument(
        "--train-examples", type=train_examples, default=DEFAULT_TRAIN_EXAMPLES
    )
    model.add_argument(
        "--wait-ready", action="store_true",
        help="block until the primary model is resident before serving "
             "(disables the degraded-start window)",
    )
    batching = parser.add_argument_group("batching & robustness")
    batching.add_argument(
        "--max-batch-columns", type=int, default=256, metavar="N",
        help="column budget per micro-batch",
    )
    batching.add_argument(
        "--max-wait-ms", type=float, default=10.0, metavar="MS",
        help="batch gathering window; higher = bigger batches, more latency",
    )
    batching.add_argument(
        "--queue-limit", type=int, default=64, metavar="N",
        help="bounded queue size; submissions past it are shed with 429",
    )
    batching.add_argument(
        "--deadline-ms", type=float, default=30000.0, metavar="MS",
        help="default per-request deadline (clients override per call)",
    )
    add_fault_flags(parser)
    add_observability_flags(parser)
    return parser


def _parse_model_specs(specs: list[str] | None) -> list[tuple[str, str]]:
    """``[NAME=]PATH`` flags → ``[(name, path)]`` (name defaults to stem)."""
    out: list[tuple[str, str]] = []
    for spec in specs or []:
        name, sep, path = spec.partition("=")
        if sep and name and os.sep not in name:
            out.append((name, path))
        else:
            out.append((os.path.splitext(os.path.basename(spec))[0], spec))
    return out


def enable_telemetry(args) -> None:
    """A server's /metrics endpoint is only useful with telemetry on, so
    unlike the batch CLIs, repro-serve always enables it.  Span records
    are kept only when ``--trace-out`` or ``--manifest`` will export them:
    otherwise every request would grow the tracer's buffer for nothing."""
    telemetry.enable(
        log_level=args.log_level or "info",
        keep_spans=bool(args.trace_out or args.manifest),
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    enable_telemetry(args)
    configure_faults(args)

    specs = _parse_model_specs(args.models)
    names = [name for name, _ in specs]
    if len(set(names)) != len(names):
        print(f"repro-serve: duplicate model names in --model: {names}",
              file=sys.stderr)
        return 1
    default_name = args.default_model
    if default_name is not None and default_name not in names:
        print(f"repro-serve: --default-model {default_name!r} is not among "
              f"--model names {names}", file=sys.stderr)
        return 1

    if specs:
        if default_name is None:
            default_name = names[0]
        registry = ModelRegistry(
            model_path=dict(specs)[default_name], default_name=default_name
        )
        for name, path in specs:
            if name != default_name:
                registry.register(name, model_path=path)
    else:
        registry = ModelRegistry(train=TrainConfig(
            n_examples=args.train_examples, trees=args.trees, seed=args.seed
        ))
    service = InferenceService(
        registry,
        max_batch_columns=args.max_batch_columns,
        max_wait_s=args.max_wait_ms / 1000.0,
        queue_limit=args.queue_limit,
        default_deadline_s=args.deadline_ms / 1000.0,
    )
    try:
        server = make_server(args.host, args.port, service)
    except OSError as exc:
        print(f"repro-serve: cannot bind {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 1
    service.start(load_in_background=not args.wait_ready)
    if args.wait_ready:
        failed = [
            (name, entry["error"])
            for name, entry in registry.describe_all().items()
            if entry["state"] == "failed"
        ]
        if failed:
            for name, error in failed:
                print(f"repro-serve: model {name!r} load failed: {error}",
                      file=sys.stderr)
            return 1

    manifest = RunManifest(
        command="repro-serve",
        argv=list(argv) if argv is not None else sys.argv[1:],
        seed=args.seed,
        scale=args.train_examples,
        model_path=",".join(path for _, path in specs) or None,
    )

    # The startup line is machine-readable on purpose: tests and
    # perfbench parse the URL (--port 0 binds an ephemeral port).
    described = (
        "artifacts " + ",".join(names) if specs else "training"
    )
    print(
        f"repro-serve listening on http://{args.host}:{server.server_port} "
        f"(model: {described})",
        flush=True,
    )

    stop = threading.Event()

    def _graceful(signum, frame):
        telemetry.info("serve.signal", signal=signal.Signals(signum).name)
        stop.set()
        # shutdown() must come from another thread than serve_forever().
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _graceful)
    signal.signal(signal.SIGINT, _graceful)

    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        # Drain: refuse new work (503), finish queued requests, half-close
        # idle keep-alive connections, then join handler threads so every
        # accepted request gets its response.
        service.drain()
        server.server_close()
        if args.metrics_out:
            write_json(args.metrics_out, telemetry.metrics.snapshot())
        if args.trace_out:
            n = write_spans_jsonl(args.trace_out, telemetry.spans)
            telemetry.info("serve.trace_exported", path=args.trace_out,
                           spans=n, dropped=telemetry.tracer.dropped)
        if args.manifest:
            default = registry.resolve()
            manifest.extra["model_fingerprint"] = default.fingerprint
            manifest.extra["model_state"] = default.state
            manifest.extra["models"] = registry.describe_all()
            manifest.finalize(telemetry)
            manifest.write(args.manifest)
        print("repro-serve: drained, bye", flush=True)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
