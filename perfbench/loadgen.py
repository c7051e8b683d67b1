"""serve-small load generator: one process, 2 closed-loop keep-alive
``ServeClient`` connections.

Each connection sends request ``i`` (a fresh seeded 8x60 CSV table routed to
``rf`` for even ``i`` and ``logreg`` for odd ``i``) and waits for its reply
before taking the next index: the callers this models (``repro-infer
--server``, ``served_assignments``) each wait for their reply.  Retries are
off, so a shed 429, a 5xx or a transport error is one failed request.

Writes one JSON line per request (index, route, latency, predictions) to
``--out``; the benchmark checks the predictions after the run, untimed.

Usage::

    python perfbench/loadgen.py --url URL --seed N --seconds S --out FILE
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from inputs import small_table  # noqa: E402

ROUTES = ("rf", "logreg")
CONNECTIONS = 2
#: Requests per connection sent before the timed window opens.
WARMUP = 10


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="loadgen")
    parser.add_argument("--url", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-requests", type=int, default=0,
                        help="keep timing past --seconds until this many "
                             "timed requests have been sent")
    parser.add_argument("--first-index", type=int, default=0)
    parser.add_argument("--trace", action="store_true",
                        help="enable client-side telemetry (traced pass)")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    from repro.obs import telemetry
    from repro.serve.client import ServeClient, ServeClientError

    if args.trace:
        telemetry.enable(log_level="off")
    lock = threading.Lock()
    state = {"next": args.first_index, "timed": 0}
    records: list[dict] = []
    window: dict[str, float] = {}
    warm = threading.Barrier(CONNECTIONS + 1)
    go = threading.Event()

    def take_index() -> int:
        with lock:
            index = state["next"]
            state["next"] += 1
            return index

    def one_request(client, timed: bool) -> float:
        index = take_index()
        route = ROUTES[index % 2]
        text = small_table(args.seed, index)
        record = {"index": index, "route": route, "timed": timed}
        start = time.perf_counter()
        try:
            response = client.infer_csv_text(
                text, table=f"t{index}", model=route
            )
        except (ServeClientError, OSError) as exc:
            record["latency_ms"] = 1000.0 * (time.perf_counter() - start)
            record["error"] = str(exc)
            record["status"] = getattr(exc, "status", 0)
        else:
            record["latency_ms"] = 1000.0 * (time.perf_counter() - start)
            record["predictions"] = response["predictions"]
            record["model"] = response.get("model")
            record["degraded"] = response.get("degraded")
            record["timing"] = response.get("timing")
        end = time.perf_counter()
        with lock:
            records.append(record)
        return end

    def connection() -> None:
        client = ServeClient(args.url, timeout_s=60.0, retry=None)
        try:
            for _ in range(WARMUP):
                one_request(client, timed=False)
            warm.wait(timeout=120)
            go.wait(timeout=120)
            deadline = window["start"] + args.seconds
            last = window["start"]
            while True:
                with lock:
                    if (time.perf_counter() >= deadline
                            and state["timed"] >= args.min_requests):
                        break
                    state["timed"] += 1
                last = one_request(client, timed=True)
            with lock:
                window["end"] = max(window.get("end", 0.0), last)
        finally:
            client.close()

    threads = [
        threading.Thread(target=connection, daemon=True)
        for _ in range(CONNECTIONS)
    ]
    for thread in threads:
        thread.start()
    warm.wait(timeout=120)
    # Warm-up requests all return before timing starts, so the timed window
    # opens with caches filled and every connection established.
    window["start"] = time.perf_counter()
    go.set()
    for thread in threads:
        thread.join()
    with open(args.out, "w") as handle:
        json.dump({"window_s": window["end"] - window["start"],
                   "next_index": state["next"]}, handle)
        handle.write("\n")
        for record in sorted(records, key=lambda r: r["index"]):
            handle.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
