"""One ``run_all`` in a fresh process, so its peak RSS is its own.

    python3 perfbench/worker.py --src src --config run.cfg --store store \
        --out out --result result.json [--spans spans.jsonl --run-id ID]

With ``--spans`` the run is traced: every public call of the factlens
modules is recorded as a span, the spans are written to that file after
the run, and the per-layer figures go into the result. Without it the
program runs untouched. The result JSON holds the run's wall time, peak
RSS, CPU time, and the digest, file count and byte count of ``--out``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

IGNORED_OUTPUTS = ("run_config.txt",)


def digest_outputs(out: Path) -> tuple[str, int, int]:
    """SHA-256 over every output file's path and bytes, plus files and bytes."""
    h = hashlib.sha256()
    files = n_bytes = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        rel = path.relative_to(out).as_posix()
        if rel in IGNORED_OUTPUTS:
            continue
        data = path.read_bytes()
        h.update(rel.encode() + b"\0" + len(data).to_bytes(8, "big") + data)
        files += 1
        n_bytes += len(data)
    return h.hexdigest(), files, n_bytes


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--run-id", default="")
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    import factlens
    import factlens.pipeline
    from factlens.config import load_config

    tracer = None
    if args.spans:
        from spans import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install(factlens)

    cfg = load_config(args.config, env={})
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    factlens.pipeline.run_all(cfg, args.store, args.out)
    run_s = time.perf_counter() - start
    cpu_s = cpu_seconds() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    digest, files, n_bytes = digest_outputs(Path(args.out))
    result = {
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "digest": digest,
        "files": files,
        "bytes": n_bytes,
    }
    if tracer is not None:
        layers = layer_metrics(tracer)
        selfs = tracer.self_times()
        layers.update({
            "pipeline.cpu_s": cpu_s,
            "report.files": files,
            "report.bytes": n_bytes,
            "trace.run_s": run_s,
            "trace.unattributed_s": run_s - sum(selfs.values()),
        })
        result["layers"] = layers
        origin = min((span[3] for span in tracer.spans), default=0.0)
        with open(args.spans, "w", encoding="utf-8") as fh:
            for sid, parent, name, t0, t1, failed in sorted(tracer.spans):
                fh.write(json.dumps({
                    "run": args.run_id, "id": sid, "parent": parent, "name": name,
                    "start": t0 - origin, "end": t1 - origin, "failed": failed,
                }) + "\n")
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
