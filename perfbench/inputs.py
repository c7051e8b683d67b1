"""Seeded input generators.  The program only ever sees their output.

``small_table`` is the serve-small request body: the 8-column x 60-row
mixed-type shape of the original serve benchmark, regenerated per request
index so a run of any length needs no stored corpus.  Category vocabularies,
small integers and the id range repeat across requests, so most distinct
values of a request were already seen by earlier ones.

``write_large_csv`` is the infer-large input: mostly high-cardinality columns
(ids, floats, URLs, free text), sized so every such column holds more
distinct values than the streaming sketch's cap and the table holds more
than the scan cache keeps.
"""

from __future__ import annotations

import random
from pathlib import Path

SMALL_ROWS = 60
CITIES = ("berlin", "oslo", "lima", "pune", "quito", "osaka")
WORDS = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta")
SMALL_COLUMNS = (
    "record_id", "amount", "city", "signup_date", "rating", "note",
    "homepage", "price_label",
)

#: Rows of the infer-large CSV: above the sketch's 65,536 distinct-value cap
#: for every high-cardinality column.
LARGE_ROWS = 80_000
LEXICON = (
    "data", "model", "feature", "table", "value", "record", "signal", "vector",
    "market", "report", "season", "growth", "policy", "sample", "energy",
    "river", "garden", "window", "planet", "ticket", "letter", "engine",
    "silver", "harbor", "museum", "canvas", "summit", "meadow", "circuit",
    "lantern", "compass", "orchard",
)


def small_table(seed: int, index: int) -> str:
    """CSV text of request ``index`` of the serve-small stream."""
    rng = random.Random(seed * 1_000_003 + index)
    rows = []
    for i in range(SMALL_ROWS):
        note = " ".join(rng.choice(WORDS) for _ in range(rng.randint(4, 9)))
        rows.append(",".join((
            str(10_000 + i),
            f"{rng.uniform(1, 9999):.2f}",
            rng.choice(CITIES),
            f"20{rng.randint(10, 23):02d}-{rng.randint(1, 12):02d}-"
            f"{rng.randint(1, 28):02d}",
            str(rng.randint(1, 5)),
            note,
            f"https://example.org/{rng.choice(WORDS)}/{i}",
            f"${rng.uniform(1, 99):.2f}",
        )))
    return ",".join(SMALL_COLUMNS) + "\n" + "\n".join(rows) + "\n"


def write_large_csv(path: Path, seed: int) -> int:
    """Write the infer-large CSV; returns its size in bytes."""
    rng = random.Random(seed)
    header = (
        "order_id,session_hex,unit_price,weight_kg,product_url,review_text,"
        "customer_email,event_time,latitude,store_code,quantity,channel"
    )
    channels = ("web", "store", "phone", "partner")
    base = rng.randrange(1_000_000, 9_000_000)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(header + "\n")
        for i in range(LARGE_ROWS):
            words = " ".join(rng.choice(LEXICON) for _ in range(rng.randint(5, 12)))
            handle.write(
                f"{base + i},{rng.getrandbits(64):016x},"
                f"{rng.uniform(0.5, 5000):.3f},{rng.uniform(0.01, 80):.4f},"
                f"https://shop.example.com/item/{rng.getrandbits(40):x}/{i},"
                f"\"{words} #{i}\","
                f"user{rng.getrandbits(32):x}.{i}@mail.example.net,"
                f"2021-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}T"
                f"{rng.randint(0, 23):02d}:{rng.randint(0, 59):02d}:"
                f"{rng.randint(0, 59):02d}.{i % 1000:03d},"
                f"{rng.uniform(-90, 90):.6f},S{rng.randint(1, 400):03d},"
                f"{rng.randint(1, 20)},{rng.choice(channels)}\n"
            )
    return path.stat().st_size


def cache_hit_profile(batches) -> tuple[int, int, int]:
    """Replay the scan cache's interning over ``batches`` (iterables of cell
    values): ``(cells, distinct_per_batch_total, already_interned)``.

    The program's :class:`~repro.core.stats.StatsScanCache` keeps every
    distinct value it has scanned until it holds more than 200,000, then
    starts over; a batch's value is a hit when it is already interned.
    """
    seen: set[str] = set()
    cells = distinct = hits = 0
    for batch in batches:
        values = list(batch)
        cells += len(values)
        unique = set(values)
        distinct += len(unique)
        hits += len(unique & seen)
        seen |= unique
        if len(seen) > 200_000:
            seen = set()
    return cells, distinct, hits
