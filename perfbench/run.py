"""factlens benchmark: closed-loop ``run_all`` on seeded synthetic corpora.

    python3 perfbench/run.py --workload rerun-6y --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source checkout. One caller runs one ``run_all``
at a time, each in a fresh worker process, until ``--seconds`` of
measuring have passed. The program sees only generated inputs: a corpus
from ``make_articles(seed=--seed)`` plus four malformed lines, the alias
CSV from ``write_alias_csv``, and a ``run.cfg``. Chat requests (and, on
``live-http``, embedding requests) go through the real HTTP clients to a
loopback fake provider in its own process, which counts them.

Every repetition's ``out/`` (minus ``run_config.txt``) must be byte
identical to a reference run built in setup with the in-process
synthetic chat and hashed embedding providers. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics with ``--trace 0``, the per-layer
metrics of alternating traced and untraced runs with ``--trace 1``.
The line before it holds the details: per-repetition values, the
output digest and the machine conditions. ``--smoke`` runs every
workload at a tiny size and checks that it emits exactly the metrics
named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import datetime as dt
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
WORKER_TIMEOUT_S = 60


@dataclass(frozen=True)
class Workload:
    articles: int
    date_from: dt.date
    date_to: dt.date
    new_articles: int  # the newest articles, absent from the warmed cache
    http_embedding: bool = False
    min_support: int = 10


SIX_YEARS = (dt.date(2018, 1, 1), dt.date(2023, 12, 31))
WORKLOADS = {
    # Re-analysis of the paper's six-year span after a configuration
    # change, with a handful of newly added articles: warm cache, ~4
    # in-window candidates per article, ~240 days per org pair for
    # windowed Jaccard, every analysis stage busy.
    "rerun-6y": Workload(1500, *SIX_YEARS, new_articles=4),
    # One dense quarter: ~60 in-window candidates per article, so windowed
    # similarity dominates while windowed Jaccard has only 90 days to scan.
    "dense-90d": Workload(1200, dt.date(2018, 1, 1), dt.date(2018, 3, 31), new_articles=4),
    # A first run against live services: cold cache, every chat and
    # embedding request over HTTP to a fake with 10 ms / 2 ms latency.
    "live-http": Workload(
        40, *SIX_YEARS, new_articles=40, http_embedding=True, min_support=3
    ),
}
SMOKE_ARTICLES = 48


class FakeProvider:
    """The loopback fake provider process; stopped by ``close``."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "fake_provider.py"), "--src", str(SRC)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline().strip()
        if not line.isdigit():
            self.close()
            raise RuntimeError("fake provider did not report its port")
        self.url = f"http://127.0.0.1:{line}"

    def stats(self) -> dict:
        with urllib.request.urlopen(self.url + "/stats", timeout=10) as resp:
            return json.loads(resp.read())

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()  # the fake exits on end of input
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream and not stream.closed:
                stream.close()


def write_inputs(fl, wl: Workload, seed: int, d: Path) -> list:
    """Corpus (plus four malformed lines), alias CSV; returns the articles."""
    articles = fl.synthetic.make_articles(wl.articles, (wl.date_from, wl.date_to), seed=seed)
    fl.corpus.write_corpus_file(articles, d / "corpus.jsonl")
    first = json.loads(fl.corpus.canonical_record(articles[0]))
    with (d / "corpus.jsonl").open("a", encoding="utf-8") as fh:
        fh.write("\n")
        fh.write('{"id": "truncated-record", "org": \n')
        fh.write(json.dumps({**first, "id": "out-of-range", "published_at": "2031-01-01"}) + "\n")
        fh.write(json.dumps({**first, "body": "A duplicate id keeps the first record."}) + "\n")
    fl.synthetic.write_alias_csv(d / "aliases.csv")
    return articles


def write_config(path: Path, d: Path, wl: Workload, seed: int, fake: FakeProvider | None) -> None:
    lines = [
        f"input_file = {d / 'corpus.jsonl'}",
        f"aliases_file = {d / 'aliases.csv'}",
        f"cache_dir = {d / 'cache'}",
        f"date_from = {wl.date_from.isoformat()}",
        f"date_to = {wl.date_to.isoformat()}",
        f"seed = {seed}",
        f"min_support = {wl.min_support}",
    ]
    if fake is not None:
        lines += [
            "provider_kind = http",
            f"provider_endpoint = {fake.url}/chat",
            "provider_rate_limit = 200",
        ]
        if wl.http_embedding:
            lines += ["embedding_kind = http", f"embedding_endpoint = {fake.url}/embed"]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class Setup:
    """Generated inputs, a running fake provider, and a warmed cache."""

    def __init__(self, fl, wl: Workload, seed: int, d: Path):
        self.dir = d
        d.mkdir(parents=True)
        self.articles = write_inputs(fl, wl, seed, d)
        self.fake = FakeProvider()
        try:
            write_config(d / "run.cfg", d, wl, seed, self.fake)
            write_config(d / "reference.cfg", d, wl, seed, None)
            cfg = fl.config.load_config(d / "run.cfg", env={})
            old = self.articles[: len(self.articles) - wl.new_articles]
            fl.annotation.annotate_corpus(
                fl.corpus.Corpus(tuple(old), (wl.date_from, wl.date_to)),
                fl.providers.SyntheticChatProvider(model_name=cfg.provider_model),
                cfg.provider_config(),
            )
        except BaseException:
            self.fake.close()
            raise
        # Cache files of the new articles; removed before every repetition.
        self.new_keys = [
            fl.providers.cache_key(tid, fl.prompts.render_prompt(tid, a.body), cfg.provider_model)
            for a in self.articles[len(old):]
            for tid in fl.prompts.TEMPLATE_IDS
        ]

    def reset(self) -> None:
        """Put cache, store and outputs back to their state right after setup."""
        for key in self.new_keys:
            (self.dir / "cache" / f"{key}.json").unlink(missing_ok=True)
        for sub in ("store", "out"):
            shutil.rmtree(self.dir / sub, ignore_errors=True)

    def close(self) -> None:
        self.fake.close()


def run_worker(setup: Setup, config: str, traced: bool, run_id: str) -> dict:
    """One run_all in a fresh process; raises RuntimeError when it fails."""
    setup.reset()
    d = setup.dir
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"), "--src", str(SRC),
        "--config", str(d / config), "--store", str(d / "store"), "--out", str(d / "out"),
        "--result", str(d / "result.json"),
    ]
    if traced:
        cmd += ["--spans", str(d / "spans.jsonl"), "--run-id", run_id]
    (d / "result.json").unlink(missing_ok=True)
    before = setup.fake.stats()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    after = setup.fake.stats()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads((d / "result.json").read_text(encoding="utf-8"))
    result["requests"] = {k: after[k] - before[k] for k in after}
    return result


def calibration_loop_s() -> float:
    """Wall time of a fixed pure-Python loop: how fast this machine is now."""
    start = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i % 7
    return time.perf_counter() - start


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def closed_loop(setup: Setup, digest: str, run_id: str, seconds: float, trace: bool) -> list[dict]:
    """Repetitions one after another until the next would overrun ``seconds``.

    With ``trace`` they alternate untraced and traced, starting untraced.
    """
    reps: list[dict] = []
    walls: list[float] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(reps) % 2 == 1
        t0 = time.perf_counter()
        try:
            rep = run_worker(setup, "run.cfg", traced, f"{run_id}-{len(reps)}")
            rep["ok"] = rep["digest"] == digest
        except (RuntimeError, OSError, subprocess.TimeoutExpired, ValueError) as exc:
            rep = {"ok": False, "error": str(exc)[-500:]}
        rep["traced"] = traced
        reps.append(rep)
        walls.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(reps) >= 1 + trace and elapsed + median(walls) > seconds:
            return reps


def end_to_end(reps: list[dict], setup_times: list[float]) -> dict:
    good = [r for r in reps if r["ok"]]
    return {
        "run_s": median([r["run_s"] for r in good]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in good]),
        "chat_requests": median([r["requests"]["chat"] for r in good]),
        "provider_requests": median([r["requests"]["chat"] + r["requests"]["embed"] for r in good]),
        "setup_s": median(setup_times),
        "success_rate": len(good) / len(reps),
    }


def per_layer(reps: list[dict]) -> dict:
    """Figures of the median traced repetition, so its self times sum to its run_s."""
    good = [r for r in reps if r["ok"]]
    traced = sorted((r for r in good if r["traced"]), key=lambda r: r["run_s"])
    if not traced:
        return {}
    rep = traced[(len(traced) - 1) // 2]
    metrics = dict(rep["layers"])
    for key, name in (("chat", "fake.chat_requests"), ("embed", "fake.embed_requests"),
                      ("embed_texts", "fake.embed_texts")):
        metrics[name] = rep["requests"][key]
    misses = metrics["annotation.cache_misses"]
    metrics["fake.chat_requests_per_miss"] = metrics["fake.chat_requests"] / misses if misses else 0.0
    metrics["trace.overhead_s"] = rep["run_s"] - median([r["run_s"] for r in good if not r["traced"]])
    return metrics


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Set up, build the reference, run the closed loop; details and result."""
    import numpy
    import factlens
    import factlens.synthetic

    wl = WORKLOADS[name]
    if smoke:
        wl = replace(wl, articles=SMOKE_ARTICLES, new_articles=min(wl.new_articles, SMOKE_ARTICLES))
    machine = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "calibration_loop_s": [calibration_loop_s()],
    }
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    setup = None
    try:
        setup_times = []
        for i in range(SETUP_REPEATS):
            if setup is not None:
                setup.close()
                shutil.rmtree(setup.dir)
            start = time.perf_counter()
            setup = Setup(factlens, wl, seed, work / f"setup-{i}")
            setup_times.append(time.perf_counter() - start)
        reference = run_worker(setup, "reference.cfg", False, "reference")
        expected_files = 6 + 4 * len(pairs_of(setup.articles))
        reps = closed_loop(setup, reference["digest"], f"{name}-{seed}", seconds, trace)
        if trace and (setup.dir / "spans.jsonl").exists():
            (setup.dir / "spans.jsonl").replace(WORK / f"spans-{name}.jsonl")
    finally:
        if setup is not None:
            setup.close()
        shutil.rmtree(work, ignore_errors=True)
    machine["calibration_loop_s"].append(calibration_loop_s())

    failed = sum(not r["ok"] for r in reps)
    details = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "machine": machine,
        "setup_s": setup_times,
        "reference_digest": reference["digest"],
        "reference_files": reference["files"],
        "expected_files": expected_files,
        "repetitions": [
            {k: r.get(k) for k in ("traced", "ok", "run_s", "peak_rss_mb", "cpu_s", "digest",
                                   "requests", "error")}
            for r in reps
        ],
    }
    return {
        "details": details,
        "result": {
            "correct": reference["files"] == expected_files and failed == 0,
            "attempted": len(reps),
            "failed": failed,
            "metrics": per_layer(reps) if trace else end_to_end(reps, setup_times),
        },
    }


def pairs_of(articles) -> list[tuple[str, str]]:
    """Ordered org pairs within each country, as run_all forms them."""
    by_country: dict[str, set[str]] = {}
    for a in articles:
        by_country.setdefault(a.country, set()).add(a.org)
    return [(x, y) for orgs in by_country.values() for x in orgs for y in orgs if x != y]


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def smoke() -> int:
    """Every workload at a tiny size, traced and untraced: all metrics present."""
    spec = load_spec()
    bad = 0
    for workload in spec["workloads"]:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            out = run_benchmark(workload["name"], 1, 1, trace, smoke=True)
            result = out["result"]
            wanted = {m["name"] for m in spec[section]}
            got = set(result["metrics"])
            ok = result["correct"] and wanted == got
            bad += not ok
            print(json.dumps({
                "workload": workload["name"], "trace": int(trace), "ok": ok,
                "correct": result["correct"], "missing": sorted(wanted - got),
                "unexpected": sorted(got - wanted),
            }))
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not (SRC / "factlens" / "__init__.py").is_file():
        print(f"no factlens sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")

    out = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    spec = load_spec()
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    result = out["result"]
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()}
    with (WORK / "runs.jsonl").open("a", encoding="utf-8") as fh:
        fh.write(json.dumps({**out["details"], "result": result}) + "\n")
    print(json.dumps(out["details"]))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
