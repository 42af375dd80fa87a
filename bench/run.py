"""Benchmark of trailkit as a batch verifier, driven the way its users run it.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src``.  Each batch of a workload runs in a fresh process (``batch.py``)
with ``TRAILKIT_CACHE_DIR`` unset, so module builds are cold as on a
user's first command, and sends its jobs one at a time through
``trailkit.cli.main``.  Batches repeat, one after the other, until
``--seconds`` have passed.  The seed fixes only the order of the jobs.
The timings are medians per config over the batches of a run, so that a
burst of load from elsewhere on a shared machine does not show.  Every
time is given at a fixed machine speed, as the speed of a shared machine
drifts by a fifth or more over minutes: each process times the fixed
loop of ``calibrate.py`` between its jobs, and each latency is scaled by
``calibrate.NOMINAL_S`` over the median of the loop times taken nearest
it (a set-up time, over those of its process).  The raw wall-clock
figures, and the speed factors, are printed and saved beside them.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced batches and reports the
per-layer metrics of the traced ones.  Every report is checked and
digested: batches of one run, and runs of the same source in one
checkout, must agree byte for byte.  Results, with every failing config,
go to ``bench/results/``.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 when a result was printed.

Workloads (see ``workloads.py``):

- ``sweep_rank3``: ``verify --suite all`` on all 100 reduced words of w0 in
  A3, B3 and C3 -- many small configs, LP and DFS bound.  It carries the 20
  known false-trail words (B3 and C3, t=2).
- ``build_enumerate``: ``enumerate`` on the greedy w0 of seven rank-4..6
  modules -- cold module builds and trail DFS, with no LP at all.
- ``ladder_envelope``: ``verify --suite envelope`` on the greedy w0 of six
  rank-4/5 types -- few long configs, dominated by the extremality LP.
  It is not in ``BENCHMARK.json``: the time that all benchmark runs may
  take together leaves runs long enough to be steady on a shared 2-core
  machine only for two workloads, and the LP it stresses takes about
  43 % of ``sweep_rank3`` too.

Left out because no per-run budget covers them (probe figures, one
process on a 2-core shared machine): the E6 omega_6 envelope (46 s), the
D6 omega_6 envelope (81 s), the E6 omega_3 build (MemoryError after 76 s
under a 2 GB address-space cap), the F4 omega_3 build (over 90 s) and the
F4 omega_2 build.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORKLOADS = ("sweep_rank3", "ladder_envelope", "build_enumerate")
SETUP_SAMPLES = 9       # extra set-up-only processes per untraced run
RUN_LIMIT_S = 170       # a run must end within 180 s
# cfg_p50_s when more than half the configs fail, as JSON has no infinity.
WORST = sys.float_info.max


class BenchError(Exception):
    """The benchmark could not produce a result."""


def median_failed_inf(latencies, ok) -> float:
    """Median latency, a failed config counting as +infinity."""
    return statistics.median(t if good else math.inf
                             for t, good in zip(latencies, ok))


def goodput(ok_count: int, busy_s: float) -> float:
    """Configs that exit 0 per second spent in ``trailkit.cli.main``."""
    return ok_count / busy_s


def source_digest() -> str:
    """One digest of the program's sources, to key recorded report digests."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def digest_mismatches(batches, record: dict) -> list[str]:
    """Configs whose report digest differs between batches or from the
    digests ``record`` holds; ``record`` gains the configs it lacked."""
    bad = []
    for batch in batches:
        for job in batch["jobs"]:
            want = record.setdefault(job["key"], job["sha256"])
            if job["sha256"] != want and job["key"] not in bad:
                bad.append(job["key"])
    return bad


def check_digests(workload: str, batches) -> list[str]:
    """Compare with, and extend, the digests recorded in this checkout for
    the same program source."""
    path = RESULTS / f"digests-{workload}.json"
    source = source_digest()
    record = {}
    if path.exists():
        saved = json.loads(path.read_text())
        if saved["source"] == source:
            record = saved["reports"]
    bad = digest_mismatches(batches, record)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps({"source": source, "reports": record},
                              sort_keys=True, indent=1))
    os.replace(tmp, path)
    return bad


class Runner:
    """Starts batch processes for one workload and seed, one at a time."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload, self.seed, self.work = workload, seed, work
        self.started = time.monotonic()
        self.count = 0
        self.env = {k: v for k, v in os.environ.items()
                    if k != "TRAILKIT_CACHE_DIR"}
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH"))
            if p)

    def batch(self, trace: bool = False, setup_only: bool = False) -> dict:
        self.count += 1
        out = self.work / f"batch{self.count}"
        result_path = self.work / f"batch{self.count}.json"
        argv = [sys.executable, str(BENCH / "batch.py"),
                "--workload", self.workload, "--seed", str(self.seed),
                "--work", str(out), "--result", str(result_path)]
        argv += ["--trace"] * trace + ["--setup-only"] * setup_only
        left = RUN_LIMIT_S - (time.monotonic() - self.started)
        start = time.monotonic()
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=self.env,
                                  capture_output=True, text=True,
                                  timeout=max(left, 1))
        except subprocess.TimeoutExpired as e:
            raise BenchError("batch overran the run's time limit") from e
        if proc.returncode != 0:
            raise BenchError(f"batch exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
        result = json.loads(result_path.read_text())
        result["setup_s"] = result["ready_monotonic"] - start
        shutil.rmtree(out)
        return result


def scale(result: dict) -> float:
    """Factor that turns the times of one process into times at the
    nominal machine speed: above 1 when the machine ran fast."""
    return calibrate.factor(result["calibration_s"])


def per_config(batches, nominal: bool = True
               ) -> tuple[list[float], list[bool]]:
    """Each config's median latency over the batches, and whether it exits
    0 in every batch.  A median per config keeps a burst of load from
    another process on the shared machine out of the figures.  With
    ``nominal`` each latency is first scaled by its job's factor."""
    keys = [j["key"] for j in batches[0]["jobs"]]
    runs = {k: [] for k in keys}
    for batch in batches:
        factors = (calibrate.job_factors(batch["calibration_s"]) if nominal
                   else [1.0] * len(batch["jobs"]))
        for job, factor in zip(batch["jobs"], factors):
            runs[job["key"]].append((job["latency_s"] * factor, job["code"]))
    latencies = [statistics.median(t for t, _ in runs[k]) for k in keys]
    ok = [all(code == 0 for _, code in runs[k]) for k in keys]
    return latencies, ok


def timings(batches, setups, nominal: bool = True
            ) -> dict[str, tuple[float, str]]:
    """The timed end-to-end metrics, at nominal speed or raw."""
    latencies, ok = per_config(batches, nominal)
    p50 = median_failed_inf(latencies, ok)
    return {
        "goodput_cfg_per_s": (goodput(sum(ok), sum(latencies)), "configs/s"),
        "cfg_p50_s": (p50 if math.isfinite(p50) else WORST, "s"),
        "setup_s": (statistics.median(
            r["setup_s"] * (scale(r) if nominal else 1.0) for r in setups),
            "s"),
    }


def end_to_end(batches, setups) -> dict[str, tuple[float, str]]:
    """``setups`` are the results of every process of the run that timed
    its set-up, batches included."""
    times = timings(batches, setups)
    jobs = [j for b in batches for j in b["jobs"]]
    return {
        "goodput_cfg_per_s": times["goodput_cfg_per_s"],
        "cfg_p50_s": times["cfg_p50_s"],
        "ok_frac": (sum(j["code"] == 0 for j in jobs) / len(jobs), "ratio"),
        "peak_rss_mb": (statistics.median(b["peak_rss_mb"] for b in batches),
                        "MB"),
        "setup_s": times["setup_s"],
    }


def per_layer(pairs) -> dict[str, tuple[float, str]]:
    traced = [t for _, t in pairs]
    names = traced[0]["layers"]
    out = {}
    for name in names:
        unit = ("s" if name.endswith("_s") else
                "ratio" if name.endswith("_frac") else
                "bytes" if name.endswith("_bytes") else "count")
        factor = scale if unit == "s" else (lambda _: 1.0)
        out[name] = (statistics.median(t["layers"][name] * factor(t)
                                       for t in traced), unit)

    def rate(b):
        return goodput(sum(j["code"] == 0 for j in b["jobs"]),
                       sum(j["latency_s"] for j in b["jobs"]) * scale(b))

    untraced = statistics.median(rate(u) for u, _ in pairs)
    out["trace.overhead_frac"] = (
        untraced / statistics.median(map(rate, traced)) - 1, "ratio")
    return out


def measure(runner: Runner, seconds: int, trace: bool):
    """Run batches until ``seconds`` have passed; return every batch run,
    the metrics and the results that timed set-up (None when traced).  A
    set-up-only process first warms the file cache."""
    runner.batch(setup_only=True)
    start = time.monotonic()
    if trace:
        pairs = []
        while not pairs or time.monotonic() - start < seconds:
            pairs.append((runner.batch(), runner.batch(trace=True)))
        return [b for pair in pairs for b in pair], per_layer(pairs), None
    batches = []
    while not batches or time.monotonic() - start < seconds:
        batches.append(runner.batch())
    setups = batches + [runner.batch(setup_only=True)
                        for _ in range(SETUP_SAMPLES)]
    return batches, end_to_end(batches, setups), setups


def failing_configs(batches) -> list[dict]:
    seen = {}
    for job in (j for b in batches for j in b["jobs"]):
        if job["code"] != 0:
            seen[job["key"]] = {k: job[k] for k in ("tag", "word", "t",
                                                    "code")}
    return sorted(seen.values(),
                  key=lambda f: (f["tag"], f["word"], str(f["t"])))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "trailkit").is_dir():
        print(f"bench: no trailkit sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=RESULTS))
    try:
        runner = Runner(args.workload, args.seed, work)
        batches, metrics, setups = measure(runner, args.seconds,
                                           bool(args.trace))
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = {j["key"]: j["problems"] for b in batches for j in b["jobs"]
                if j["problems"]}
    mismatched = check_digests(args.workload, batches)
    failing = failing_configs(batches)
    jobs = [j for b in batches for j in b["jobs"]]
    attempted, failed = len(jobs), sum(j["code"] != 0 for j in jobs)
    summary = {
        "workload": args.workload, "seed": args.seed,
        "trace": args.trace, "batches": len(batches),
        "configs_per_batch": len(batches[0]["jobs"]),
        "fail_frac": f"{failed}/{attempted}",
        "failing_configs": failing,
        "problems": problems,
        "digest_mismatches": mismatched,
        "digests": {j["key"]: j["sha256"] for j in batches[0]["jobs"]},
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
        "speed_factors": [scale(r) for r in batches + (setups or [])],
    }
    if setups:
        summary["raw_wall_clock"] = {
            k: {"value": v, "unit": u}
            for k, (v, u) in timings(batches, setups, nominal=False).items()}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(summary, indent=1) + "\n")

    print(f"{args.workload}: seed {args.seed}, {len(batches)} batches of "
          f"{summary['configs_per_batch']} configs, trace {args.trace}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:28s} {value:14.6g} {unit}")
    factors = summary["speed_factors"]
    print(f"  times are at nominal speed; the machine ran at "
          f"{min(factors):.3g}..{max(factors):.3g} x nominal, "
          f"median {statistics.median(factors):.3g}")
    for key, m in summary.get("raw_wall_clock", {}).items():
        print(f"  raw {key:24s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'fail_frac':28s} {failed / attempted:14.6g} ratio "
          f"({failed} of {attempted} configs exit != 0 or raise)")
    if not args.trace:
        print(f"  cfg_p50_s is over {attempted} configs, in {len(batches)} "
              f"batches of {summary['configs_per_batch']}")
    for f in failing:
        word = "".join(map(str, f["word"]))
        print(f"  failing: ({f['tag']}, {word}, t={f['t']}) exit {f['code']}")
    for key, why in problems.items():
        print(f"  WRONG: {key}: {'; '.join(why)}")
    for key in mismatched:
        print(f"  WRONG: {key}: report digest differs between runs")
    print(json.dumps({
        "correct": not problems and not mismatched,
        "attempted": attempted,
        "failed": failed,
        "metrics": summary["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
