"""Snapshot benchmark harness: attach vs pickle, fused kernel vs object walk.

The snapshot subsystem makes two mechanical claims and this harness makes
both machine-checkable across PRs (``BENCH_snapshot.json`` at the repo root):

* **attach**: re-materialising a served instance from a snapshot image must
  be dramatically cheaper than the pickle round-trip it replaces.  The bench
  times ``pickle.dumps`` + ``pickle.loads`` of the full preprocessed
  instance against ``InstanceSnapshot.from_buffer`` over the same bytes —
  attach is a header parse plus zero-copy ``np.frombuffer`` views, so the
  gap should be an order of magnitude at ``n = 10^5`` and widen with ``n``.
  Payload sizes for both formats are recorded alongside the times.
* **cold restart**: the mmap'd file carrier, timed end-to-end (open + map +
  parse + first answer) in a *fresh subprocess*, against a fresh build of
  the same instance in that subprocess — restart is a map, not a rebuild.
* **fused kernel**: single-rank ``access`` latency through the fused flat
  kernel versus the object walk over the raw instance, over the same seeded
  rank sequence.  Answers are compared bit-for-bit *before* any timing.

One ``seed`` drives every generator and is recorded in the metadata, as are
``cpu_count`` and the carrier of each measured attach.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Mapping, Optional, Sequence

from repro.benchharness.replay import zipf_ranks
from repro.core.access import access as object_access
from repro.core.direct_access import LexDirectAccess
from repro.core.orders import LexOrder
from repro.core.snapshot import InstanceSnapshot, capture
from repro.obs import ACCESS_KERNELS, obs_enabled
from repro.workloads.generators import generate_path_database


def _best_of(repeats: int, run):
    """Fastest wall-clock of ``repeats`` runs, with that run's result.

    Garbage collection is paused around each timed run (and collected
    between them) — at sub-millisecond attach times a single cycle-collector
    pause is a triple-digit relative error.
    """
    import gc

    best = float("inf")
    best_result = None
    for _ in range(repeats):
        gc.collect()
        gc.disable()
        try:
            started = time.perf_counter()
            result = run()
            elapsed = time.perf_counter() - started
        finally:
            gc.enable()
        if elapsed < best:
            best, best_result = elapsed, result
    return best, best_result


_RESTART_SCRIPT = """\
import json, sys, time

# Import everything first: both sides are timed on work, not on interpreter
# startup (numpy import alone would otherwise dominate the reload number).
from repro.core.snapshot import InstanceSnapshot
from repro.core.direct_access import LexDirectAccess
from repro.core.orders import LexOrder
from repro.workloads.generators import generate_path_database
from repro.workloads import paper_queries as pq

started = time.perf_counter()
snapshot = InstanceSnapshot.load(sys.argv[1])
instance = snapshot.instance()
first = instance.access(0)
reload_seconds = time.perf_counter() - started

started = time.perf_counter()

params = json.loads(sys.argv[2])
database = generate_path_database(
    params["tuples"], params["domain"], seed=params["seed"],
    backend=params["backend"],
)
access = LexDirectAccess(
    pq.TWO_PATH, database, LexOrder(("x", "y", "z")), backend=params["backend"]
)
rebuild_seconds = time.perf_counter() - started

identical = (
    instance.count == access.count
    and tuple(first) == tuple(access.access(0))
    and instance.access(instance.count - 1) == access.access(access.count - 1)
)
snapshot.close()
print(json.dumps({
    "reload_seconds": reload_seconds,
    "rebuild_seconds": rebuild_seconds,
    "identical": identical,
}))
"""


def _cold_restart(path: str, params: Mapping[str, object]) -> Dict[str, object]:
    """Reload + rebuild timings from a fresh interpreter (true cold start)."""
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))))
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", _RESTART_SCRIPT, path, json.dumps(dict(params))],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _object_walk(instance, ranks) -> List:
    """The answers at ``ranks`` by the object walk over the raw preprocessed
    instance (its facade reads the image); checks the walk really ran."""
    before = ACCESS_KERNELS.value(("access", "object"))
    answers = [object_access(instance, int(k)) for k in ranks]
    if obs_enabled() and ACCESS_KERNELS.value(("access", "object")) < before + len(ranks):
        raise AssertionError("the object-walk reference did not run the object walk")
    return answers


def run_snapshot_bench(
    sizes: Sequence[int] = (100_000,),
    backends: Optional[Sequence[str]] = None,
    num_requests: int = 5_000,
    repeats: int = 3,
    seed: int = 0,
    cold_restart: bool = True,
) -> Dict[str, object]:
    """Measure attach-vs-pickle and fused-vs-object-walk per backend and size.

    The workload is the paper's two-path join under the head order.  Every
    timed comparison is preceded by a bit-identical answer check over the
    full seeded rank sequence — a snapshot that answers differently must
    fail the bench, not skew it.
    """
    from repro.workloads import paper_queries as pq

    if backends is None:
        from repro.engine.backends import available_backends

        backends = available_backends()

    query = pq.TWO_PATH
    order = LexOrder(("x", "y", "z"))
    cpu_count = os.cpu_count() or 1

    per_backend: Dict[str, object] = {}
    for backend in backends:
        runs: List[Dict[str, object]] = []
        for num_tuples in sizes:
            domain = max(8, int(num_tuples ** 0.5))
            database = generate_path_database(
                num_tuples, domain, seed=seed, backend=backend
            )
            access = LexDirectAccess(query, database, order, backend=backend)
            instance = access._instance
            count = access.count

            snapshot = capture(instance, fingerprint=access.plan.fingerprint)
            if snapshot is None:
                raise AssertionError(
                    f"capture returned no image (backend={backend}, n={num_tuples})"
                )

            # --- equivalence first: fused kernel vs object walk, bit-identical
            ranks = zipf_ranks(num_requests, count, seed=seed)
            served = snapshot.instance()
            fused_answers = [served.access(int(k)) for k in ranks]
            walk_answers = _object_walk(instance, ranks)
            if fused_answers != walk_answers:
                raise AssertionError(
                    f"fused kernel answers differ from the object walk "
                    f"(backend={backend}, n={num_tuples})"
                )

            # --- attach vs pickle round-trip over equivalent payloads
            # (pickling an instance leaves its installed image out)
            pickle_seconds, payload = _best_of(
                repeats,
                lambda: pickle.loads(
                    pickle.dumps(instance, protocol=pickle.HIGHEST_PROTOCOL)
                ),
            )
            pickle_bytes = len(
                pickle.dumps(instance, protocol=pickle.HIGHEST_PROTOCOL)
            )
            del payload

            blob = snapshot.to_bytes()
            attach_seconds, attached = _best_of(
                repeats, lambda: InstanceSnapshot.from_buffer(blob)
            )
            assert attached.count == count
            attached.close()

            # --- fused vs object-walk single-rank latency
            fused_seconds, _ = _best_of(repeats, lambda: [
                served.access(int(k)) for k in ranks
            ])
            walk_seconds, _ = _best_of(repeats, lambda: [
                object_access(instance, int(k)) for k in ranks
            ])

            run: Dict[str, object] = {
                "tuples_per_relation": int(num_tuples),
                "count": int(count),
                "carrier": "memory",
                "capture_seconds": round(snapshot.seconds, 6),
                "snapshot_bytes": int(len(blob)),
                "pickle_bytes": int(pickle_bytes),
                "attach_seconds": round(attach_seconds, 6),
                "pickle_roundtrip_seconds": round(pickle_seconds, 6),
                "attach_speedup_vs_pickle": round(
                    pickle_seconds / attach_seconds, 2)
                if attach_seconds > 0 else None,
                "requests": int(len(ranks)),
                "fused_access_seconds": round(fused_seconds, 6),
                "object_walk_seconds": round(walk_seconds, 6),
                "fused_speedup_vs_walk": round(walk_seconds / fused_seconds, 2)
                if fused_seconds > 0 else None,
                "answers_identical": True,
            }

            if cold_restart:
                fd, path = tempfile.mkstemp(suffix=".rsnp")
                os.close(fd)
                try:
                    snapshot.save(path)
                    restart = _cold_restart(path, {
                        "tuples": int(num_tuples), "domain": int(domain),
                        "seed": int(seed), "backend": backend,
                    })
                    if not restart["identical"]:
                        raise AssertionError(
                            f"cold-restart reload answers differ from a fresh "
                            f"build (backend={backend}, n={num_tuples})"
                        )
                    run["cold_restart"] = {
                        "carrier": "file",
                        "reload_seconds": round(restart["reload_seconds"], 6),
                        "rebuild_seconds": round(restart["rebuild_seconds"], 6),
                        "reload_speedup_vs_rebuild": round(
                            restart["rebuild_seconds"] / restart["reload_seconds"],
                            2,
                        ) if restart["reload_seconds"] > 0 else None,
                        "identical": True,
                    }
                finally:
                    os.unlink(path)

            runs.append(run)
        per_backend[backend] = {"runs": runs}

    return {
        "artifact": "snapshot",
        "metadata": {
            "query": str(query),
            "order": str(order),
            "sizes": [int(n) for n in sizes],
            "requests": int(num_requests),
            "repeats": int(repeats),
            "seed": int(seed),
            "cpu_count": cpu_count,
            "carriers_measured": ["memory"] + (["file"] if cold_restart else []),
            "backends": list(backends),
            "note": (
                "attach_speedup_vs_pickle compares zero-copy from_buffer "
                "against a pickle round-trip of the full preprocessed "
                "instance; fused_speedup_vs_walk compares the flat scalar "
                "kernel against the Bucket object walk on the same seeded "
                "Zipf ranks, answers verified bit-identical before timing; "
                "cold_restart times are end-to-end in a fresh interpreter"
            ),
        },
        "backends": per_backend,
    }


def write_snapshot_bench(path: str, document: Mapping[str, object]) -> None:
    """Write the benchmark artifact (``BENCH_snapshot.json``)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
