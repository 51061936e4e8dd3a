"""Seeded hotel-booking inputs and an independent reference for their rules.

Every workload reads rows from :func:`booking_rows`: nine columns
(``id, zip, city, state, name, price, nights, t, total``) in which the
declared rules hold by construction, plus planted anomalies at rows
fixed by the seed:

* city and state typos (break ``zip -> city``, ``zip -> state`` and the
  ``city -> state`` AFD, and the constant CFD on one zip);
* price outliers (break the ``name -> price`` MFD);
* totals that forgot one night (break the MD and the DC);
* swapped ids a few rows apart (break the OD and the DD).

:func:`reference_counts` recounts each rule's violations straight from
its definition over the generated rows, with plain sorting and
grouping. It shares no code with the program, so a wrong count from
``repro check`` cannot also be the expected one.
"""

from __future__ import annotations

import csv
import json
import random
import sys
from bisect import bisect_right
from collections import Counter, defaultdict
from pathlib import Path

COLUMNS = ("id", "zip", "city", "state", "name", "price", "nights", "t",
           "total")
NUMERIC = ("id", "price", "nights", "t", "total")

#: Rows sharing one ``t`` value (ties exercise the strict OD marks).
T_TIE = 4
#: Rows between a swapped id and its partner.
SWAP_GAP = 6
MFD_DELTA = 25.0
#: Bookings per hotel in a generated table.
ROWS_PER_HOTEL = 20


def check_rules(cfd_zip: str, cfd_city: str) -> list[dict]:
    """The nine-rule file of ``check_csv``: one rule per kernel path.

    FDs, the AFD and the CFD run the group engines, the MFD and the DC
    group-partition candidates, the OD a sorted sweep, the DD and the
    MD metric blocking; the DC verifies through the denial scan.
    """
    return [
        {"id": "fd_zip_city", "kind": "FD", "lhs": ["zip"], "rhs": ["city"]},
        {"id": "fd_zip_state", "kind": "FD", "lhs": ["zip"],
         "rhs": ["state"]},
        {"id": "afd_city_state", "kind": "AFD", "lhs": ["city"],
         "rhs": ["state"], "max_error": 0.05},
        {"id": "cfd_zip_city", "kind": "CFD", "lhs": ["zip"],
         "rhs": ["city"], "pattern": {"zip": cfd_zip, "city": cfd_city}},
        {"id": "mfd_name_price", "kind": "MFD", "lhs": ["name"],
         "rhs": ["price"], "delta": MFD_DELTA},
        {"id": "od_t_id", "kind": "OD", "lhs": [["t", "<"]],
         "rhs": [["id", "<"]]},
        {"id": "dd_id_t", "kind": "DD", "lhs": {"id": [0, 1]},
         "rhs": {"t": [0, 1]}},
        {"id": "md_price_nights_total", "kind": "MD",
         "lhs": {"price": 0.5, "nights": 0.5}, "rhs": ["total"]},
        {"id": "dc_name_nights", "kind": "DC", "predicates": [
            {"attr1": "name", "op": "=", "attr2": "name"},
            {"attr1": "nights", "op": "=", "attr2": "nights"},
            {"attr1": "price", "op": "<", "attr2": "price"},
            {"attr1": "total", "op": ">", "attr2": "total"},
        ]},
    ]


def ingest_rules() -> list[dict]:
    """The ``ingest_window`` tenant's rules: FD, AFD, MFD and a pairwise DD."""
    keep = ("fd_zip_city", "afd_city_state", "mfd_name_price", "dd_id_t")
    return [r for r in check_rules("", "") if r["id"] in keep]


class Hotels:
    """The seed's fixed world: hotels, their zips, cities and states.

    Every city has the same number of zips and every zip the same number
    of hotels (give or take one); the seed only shuffles which is which.
    Group sizes, and with them the cost of the group-based checks, then
    do not swing from seed to seed.
    """

    def __init__(self, n_hotels: int, rng: random.Random,
                 price_step: int = 1) -> None:
        n_zips = max(8, n_hotels // 3)
        n_cities = max(4, n_zips // 4)
        city_state = [f"S{rng.randrange(50):02d}" for _ in range(n_cities)]
        self.zip_city = [z % n_cities for z in range(n_zips)]
        rng.shuffle(self.zip_city)
        self.zip_state = [city_state[c] for c in self.zip_city]
        self.n_cities = n_cities
        self.hotel_zip = [h % n_zips for h in range(n_hotels)]
        rng.shuffle(self.hotel_zip)
        self.hotel_base = [float(rng.randrange(40, 400, price_step))
                           for _ in range(n_hotels)]

    def cfd_pattern(self) -> tuple[str, str]:
        z = self.hotel_zip[0]
        return f"z{z:05d}", f"city-{self.zip_city[z]:04d}"


ANOMALIES = ("city", "state", "price", "total", "swap")


def booking_rows(n: int, seed: int, start: int = 0,
                 hotels: Hotels | None = None,
                 rng: random.Random | None = None,
                 planted: tuple[str, ...] = ANOMALIES,
                 price_step: int = 1) -> tuple[list[tuple], Hotels]:
    """Rows ``start .. start+n-1`` of the seed's booking stream.

    ``planted`` names the anomaly kinds to plant.  Pass back the
    returned ``hotels`` and the same ``rng`` to continue the stream
    (the ingest workload draws its batches this way).
    """
    if rng is None:
        rng = random.Random(seed)
    if hotels is None:
        hotels = Hotels(max(20, n // ROWS_PER_HOTEL), rng, price_step)
    rows = []
    cfd_zip = hotels.hotel_zip[0]
    for k in range(start, start + n):
        h = rng.randrange(len(hotels.hotel_zip))
        z = hotels.hotel_zip[h]
        city = hotels.zip_city[z]
        state = hotels.zip_state[z]
        price = hotels.hotel_base[h] + 5.0 * rng.randrange(3)
        nights = rng.randrange(1, 15)
        billed = nights
        if "city" in planted and (
                k % 997 == 13 or (z == cfd_zip and k % 7 == 3)):
            city = (city + 1 + rng.randrange(hotels.n_cities - 1)) \
                % hotels.n_cities
        if "state" in planted and k % 1499 == 7:
            state = "S99"
        if "price" in planted and k % 1009 == 5:
            price += 60.0
        if "total" in planted and k % 1013 == 11 and nights > 1:
            billed = nights - 1
        rows.append((
            float(k), f"z{z:05d}", f"city-{city:04d}", state,
            f"hotel-{h:05d}", price, float(nights), float(k // T_TIE),
            price * billed,
        ))
    # Swap ids a few rows apart, wholly inside this slice.
    for k in range(start, start + n - SWAP_GAP):
        if "swap" in planted and k % 1201 == 17:
            a, b = k - start, k - start + SWAP_GAP
            ra, rb = rows[a], rows[b]
            rows[a] = (rb[0],) + ra[1:]
            rows[b] = (ra[0],) + rb[1:]
    return rows, hotels


def _cell(v) -> str:
    if isinstance(v, float):
        return str(int(v)) if v.is_integer() else repr(v)
    return v


def write_csv(path: Path, rows: list[tuple]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(COLUMNS)
        for row in rows:
            w.writerow([_cell(v) for v in row])


# -- reference counts -------------------------------------------------------


def _fd_pairs(xs, ys) -> int:
    """Pairs with equal X and different Y."""
    by_x: dict = defaultdict(Counter)
    for x, y in zip(xs, ys):
        by_x[x][y] += 1
    total = 0
    for counts in by_x.values():
        g = sum(counts.values())
        total += (g * g - sum(c * c for c in counts.values())) // 2
    return total


def _window_pairs(values: list[float], width: float) -> int:
    """Unordered pairs whose values differ by at most ``width``."""
    values = sorted(values)
    return sum(bisect_right(values, v + width) - i - 1
               for i, v in enumerate(values))


def reference_counts(rows: list[tuple], cfd: tuple[str, str]) -> dict[str, int]:
    """Violation count per rule id, from the rules' definitions."""
    col = {name: [r[i] for r in rows] for i, name in enumerate(COLUMNS)}
    out: dict[str, int] = {}

    out["fd_zip_city"] = _fd_pairs(col["zip"], col["city"])
    out["fd_zip_state"] = _fd_pairs(col["zip"], col["state"])
    out["afd_city_state"] = _fd_pairs(col["city"], col["state"])
    zip_c, city_c = cfd
    cities = [c for z, c in zip(col["zip"], col["city"]) if z == zip_c]
    singles = sum(1 for c in cities if c != city_c)
    out["cfd_zip_city"] = singles + _fd_pairs([0] * len(cities), cities)

    by_name = defaultdict(list)
    for name, price in zip(col["name"], col["price"]):
        by_name[name].append(price)
    out["mfd_name_price"] = sum(
        len(p) * (len(p) - 1) // 2 - _window_pairs(p, MFD_DELTA)
        for p in by_name.values()
    )

    # Pairs with t_a < t_b but not id_a < id_b: inversions between
    # the strict t order and the id order, via a Fenwick tree.
    ranks = {v: r for r, v in enumerate(sorted(set(col["id"])), 1)}
    tree = [0] * (len(ranks) + 1)
    order = sorted(range(len(rows)), key=lambda i: col["t"][i])
    seen = inversions = 0
    i = 0
    while i < len(order):
        j = i
        while j < len(order) and col["t"][order[j]] == col["t"][order[i]]:
            j += 1
        for k in order[i:j]:
            # Earlier-t rows whose id is not below this one's.
            r = ranks[col["id"][k]] - 1
            below = 0
            while r > 0:
                below += tree[r]
                r -= r & -r
            inversions += seen - below
        for k in order[i:j]:
            r = ranks[col["id"][k]]
            while r <= len(ranks):
                tree[r] += 1
                r += r & -r
            seen += 1
        i = j
    out["od_t_id"] = inversions

    order = sorted(range(len(rows)), key=lambda i: col["id"][i])
    ids = [col["id"][i] for i in order]
    count = 0
    for a, i in enumerate(order):
        hi = bisect_right(ids, ids[a] + 1.0)
        for b in range(a + 1, hi):
            if abs(col["t"][i] - col["t"][order[b]]) > 1.0:
                count += 1
    out["dd_id_t"] = count

    # Similar pairs (|d price| <= .5, |d nights| <= .5; nights are
    # whole numbers, so equal) minus those that agree on total.
    by_nights = defaultdict(list)
    by_total = defaultdict(list)
    for p, n, t in zip(col["price"], col["nights"], col["total"]):
        by_nights[n].append(p)
        by_total[(n, t)].append(p)
    out["md_price_nights_total"] = (
        sum(_window_pairs(p, 0.5) for p in by_nights.values())
        - sum(_window_pairs(p, 0.5) for p in by_total.values())
    )

    groups = defaultdict(list)
    for name, n, p, t in zip(col["name"], col["nights"], col["price"],
                             col["total"]):
        groups[(name, n)].append((p, t))
    count = 0
    for members in groups.values():
        for a in range(len(members)):
            pa, ta = members[a]
            for b in range(a + 1, len(members)):
                pb, tb = members[b]
                if (pa < pb and ta > tb) or (pb < pa and tb > ta):
                    count += 1
    out["dc_name_nights"] = count
    return out


# -- workload inputs ----------------------------------------------------------

CHECK_ROWS = 100_000
PROFILE_ROWS = 2_000
#: Small inputs of the same shape for the warm-up invocation.  They come
#: from one fixed seed: set-up time then measures the same work on
#: every run, whatever the seed of the measured input.
WARM_ROWS = {"check_csv": 2_000, "profile_discover": 150}
WARM_SEED = 0
#: Profile inputs plant only city typos, so the FDs below stay exact.
PROFILE_PLANTED = ("city",)
#: Few distinct base prices: price alone then determines no hotel, which
#: keeps the constant CFDs to the few hundred the hotels themselves plant.
PROFILE_PRICE_STEP = 10


def _profile_truth(rows: list[tuple]) -> dict:
    """What ``repro profile`` must report on a profile input."""
    support: dict = defaultdict(Counter)
    for row in rows:
        rec = dict(zip(COLUMNS, row))
        support["name"][(rec["name"], rec["zip"], rec["state"])] += 1
        support["zip"][(rec["zip"], rec["state"])] += 1
    cfds = []
    for (name, zip_, state), count in support["name"].items():
        if count >= 3:
            cfds += [["name", name, "zip", zip_], ["name", name, "state", state]]
    for (zip_, state), count in support["zip"].items():
        if count >= 3:
            cfds.append(["zip", zip_, "state", state])
    return {
        "rows": len(rows),
        "exact_fd": [[["name"], ["zip"]], [["name"], ["state"]],
                     [["zip"], ["state"]], [["price", "nights"], ["total"]]],
        "approx_fd": [[["zip"], ["city"]]],
        "constant_cfd": sorted(cfds),
        "od": [["id", "t"]],
    }


def write_inputs(workload: str, seed: int, out: Path) -> None:
    """Write one workload's inputs and expected outputs under ``out``."""
    if workload == "check_csv":
        sizes = {"data": (CHECK_ROWS, seed),
                 "warm": (WARM_ROWS[workload], WARM_SEED)}
        for stem, (n, rows_seed) in sizes.items():
            rows, hotels = booking_rows(n, rows_seed)
            cfd = hotels.cfd_pattern()
            write_csv(out / f"{stem}.csv", rows)
            (out / f"{stem}_rules.json").write_text(
                json.dumps({"rules": check_rules(*cfd)}), encoding="utf-8")
            if stem == "data":
                expected = {"rows": n,
                            "violations": reference_counts(rows, cfd)}
    elif workload == "profile_discover":
        sizes = {"data": (PROFILE_ROWS, seed),
                 "warm": (WARM_ROWS[workload], WARM_SEED)}
        for stem, (n, rows_seed) in sizes.items():
            rows, _ = booking_rows(n, rows_seed, planted=PROFILE_PLANTED,
                                   price_step=PROFILE_PRICE_STEP)
            write_csv(out / f"{stem}.csv", rows)
            if stem == "data":
                expected = _profile_truth(rows)
    else:
        raise SystemExit(f"no generated inputs for workload {workload!r}")
    (out / "expected.json").write_text(json.dumps(expected), encoding="utf-8")


if __name__ == "__main__":
    # python3 hotel.py <workload> <seed> <out_dir>
    write_inputs(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
