#!/usr/bin/env python3
"""Compaction soak: a served replica's memory must stay flat across compactions.

Generates a 2-path database (``R(x, y)`` and ``S(y, z)``, ``ROWS`` random
pairs each), serves it with ``repro serve`` (columnar, 2 shards, 2 workers),
prepares the LEX plan ``x, y, z`` and runs ``COMPACTIONS`` rounds of
(insert 8 new ``R`` rows, read, ``compact``).  After every compaction it
prints the master process's PSS (``/proc/<pid>/smaps_rollup``, Linux only)
and the plan's answer count.  It exits non-zero when the PSS grows by more
than ``MAX_GROWTH_MIB`` between compaction ``BASELINE_COMPACTION`` and the
last one, or when a compaction loses answers.

    PYTHONPATH=src python benchmarks/live_soak.py
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
import time
import urllib.request

PATH_QUERY = "Q(x, y, z) :- R(x, y), S(y, z)"
#: The first compaction whose PSS is the soak's baseline (1-based): the
#: first ones still grow the heap to its working size.
BASELINE_COMPACTION = 3
ROWS = 20_000
COMPACTIONS = 20
MAX_GROWTH_MIB = 10.0
SEED = 701


def generate(rows: int, seed: int, path: str) -> int:
    """Write the database document; returns the value domain size."""
    rng = random.Random(seed)
    domain = max(8, rows // 8)
    relations = {
        name: sorted({(rng.randrange(domain), rng.randrange(domain)) for _ in range(rows)})
        for name in ("R", "S")
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"relations": {
            "R": {"attributes": ["x", "y"], "rows": relations["R"]},
            "S": {"attributes": ["y", "z"], "rows": relations["S"]},
        }}, handle)
    return domain


def pss_mib(pid: int) -> float:
    with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("Pss:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no Pss line in smaps_rollup")


def start_server(db_path: str, log_path: str):
    command = [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
               "--backend", "columnar", "--shards", "2", "--workers", "2",
               "--db", f"soak={db_path}"]
    log = open(log_path, "w")
    process = subprocess.Popen(command, stdout=log, stderr=subprocess.STDOUT)
    marker = "listening on http://127.0.0.1:"
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline and process.poll() is None:
        with open(log_path, encoding="utf-8") as handle:
            text = handle.read()
        at = text.find(marker)
        if at >= 0 and "\n" in text[at:]:
            return process, log, int(text[at + len(marker):].split()[0].rstrip("/"))
        time.sleep(0.05)
    process.kill()
    process.wait()
    log.close()
    with open(log_path, encoding="utf-8") as handle:
        raise SystemExit("server did not start:\n" + handle.read()[-2000:])


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-soak-") as work:
        db_path = os.path.join(work, "db.json")
        domain = generate(ROWS, SEED, db_path)
        process, log, port = start_server(db_path, os.path.join(work, "server.log"))

        def post(path, payload):
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}{path}", data=json.dumps(payload).encode(),
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(request, timeout=120) as response:
                document = json.loads(response.read())
            if not document.get("ok"):
                raise SystemExit(f"{path} failed: {document}")
            return document

        rng = random.Random(SEED + 1)
        pss = []
        try:
            plan = post("/v1/prepare", {"db": "soak", "query": PATH_QUERY,
                                        "order": "x, y, z"})["plan"]
            count = post("/v1/count", {"plan": plan})["count"]
            for round_ in range(1, COMPACTIONS + 1):
                # New x values beyond the generated domain: every row is new
                # and joins S through an existing y.
                rows = [[domain + 8 * round_ + i, rng.randrange(domain)] for i in range(8)]
                post("/v1/insert", {"db": "soak", "relation": "R", "rows": rows})
                post("/v1/batch_access", {"plan": plan, "ks": [0, 1]})
                post("/v1/compact", {"db": "soak"})
                after = post("/v1/count", {"plan": plan})["count"]
                pss.append(pss_mib(process.pid))
                print(f"compaction {round_:>3}: master PSS {pss[-1]:7.1f} MiB, "
                      f"{after} answers", flush=True)
                if after < count:
                    raise SystemExit(f"compaction {round_} lost answers: {count} -> {after}")
                count = after
        finally:
            process.terminate()
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
            log.close()

    growth = pss[-1] - pss[BASELINE_COMPACTION - 1]
    print(f"master PSS growth, compaction {BASELINE_COMPACTION} -> {COMPACTIONS}: "
          f"{growth:+.1f} MiB (limit {MAX_GROWTH_MIB:g})")
    return 1 if growth > MAX_GROWTH_MIB else 0


if __name__ == "__main__":
    sys.exit(main())
