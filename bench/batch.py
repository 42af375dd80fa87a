"""One batch of a workload, in a fresh process: ``run.py`` starts this file.

The batch generates its jobs, writes their config files, then sends them
one at a time through ``trailkit.cli.main`` in this process, as the
``trailkit`` console script would.  Only the ``main`` calls are timed.
Before each job the batch times the fixed loop of ``calibrate.py``, so
that ``run.py`` can take the machine's drifting speed out of the
latencies.  When every job has run, the reports are checked and digested,
and the result is written as JSON to ``--result``.

    python3 bench/batch.py --workload NAME --seed N --work DIR \\
        --result FILE [--trace] [--setup-only]

``--setup-only`` stops after the inputs are written, to time set-up alone;
it still times the calibration loop, after set-up.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import time
import traceback

import calibrate
import workloads
from tracer import Tracer, install, layer_metrics

from trailkit import cli

EXIT_CODES = {0, 2, 3, 4, 5}
REPORT = {"verify": "verify.json", "enumerate": "trails.json"}
SUITES = {"all": ("sl2", "sgraph", "trails", "envelope"),
          "envelope": ("envelope",)}


def run_job(main, job, config_path: str, out: str) -> tuple[int | None, str]:
    """Run one job; return its exit code (None if it raised) and output."""
    argv = [*job.command, "--config", config_path, "--out", out]
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured), \
            contextlib.redirect_stderr(captured):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else None
        except Exception:
            code = None
            captured.write(traceback.format_exc())
    return code, captured.getvalue()


def check_report(job, code: int | None, output: str, report) -> list[str]:
    """Problems with one job's outcome; an empty list means it is correct.

    A non-zero exit is a failure of the program, not of this check, as long
    as the report says why.
    """
    if code not in EXIT_CODES:
        return [f"exit code {code}"]
    if "Traceback" in output:
        return ["traceback in the output"]
    if code in (2, 3):
        return []
    if report is None:
        # enumerate writes its report only when it succeeds.
        if job.command[0] == "enumerate" and code != 0:
            return []
        return [f"exit {code} without a report"]
    if job.command[0] == "enumerate":
        problems = []
        for m in report["modules"]:
            want = workloads.module_dim(job.tag, m["t"])
            if m["dim"] != want:
                problems.append(f"t={m['t']}: dim {m['dim']} != {want}")
            if m["trail_count"] != len(m["trails"]):
                problems.append(f"t={m['t']}: trail_count disagrees")
        return problems
    if code == 5:
        return [] if "false_trail" in report else ["exit 5 without forensics"]
    names = SUITES[job.command[2]]
    if any(name not in report for name in names):
        return [f"report lacks a suite of {names}"]
    suites = [report[name] for name in names]
    if code == 0 and not all(s["ok"] for s in suites):
        return ["exit 0 with a failed suite"]
    if code == 4 and all(s["ok"] for s in suites):
        return ["exit 4 with every suite ok"]
    return []


def outcome(job, code, output: str, out: str) -> dict:
    path = os.path.join(out, REPORT[job.command[0]])
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        data = None
    try:
        report = None if data is None else json.loads(data)
        problems = check_report(job, code, output, report)
    except (ValueError, KeyError, TypeError) as e:
        report, problems = None, [f"malformed report: {e!r}"]
    failed_t = job.t
    if report is not None and "false_trail" in report:
        failed_t = report["false_trail"].get("t", job.t)
    return {
        "key": job.key,
        "tag": job.tag,
        "word": list(job.word),
        "t": failed_t,
        "code": code,
        "sha256": None if data is None else hashlib.sha256(data).hexdigest(),
        "bytes": 0 if data is None else len(data),
        "problems": problems,
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    jobs = workloads.jobs_for(args.workload, args.seed)
    paths = []
    for idx, job in enumerate(jobs):
        out = os.path.join(args.work, f"{idx:03d}")
        os.makedirs(out)
        config_path = os.path.join(out, "config.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(job.config, fh)
        paths.append((config_path, out))
    tracer = Tracer() if args.trace else None
    main_fn = cli.main
    if tracer is not None:
        install(tracer)
        main_fn = tracer.wrap("main", "cli", cli.main)
    ready = time.monotonic()
    result: dict = {"ready_monotonic": ready}
    if args.setup_only:
        result["calibration_s"] = [calibrate.samples(calibrate.WINDOW)]
    else:
        codes, latencies, cal = [], [], []
        for job, (config_path, out) in zip(jobs, paths):
            calibrate.top_up(cal, sum(latencies))
            start = time.perf_counter()
            codes.append(run_job(main_fn, job, config_path, out))
            latencies.append(time.perf_counter() - start)
        calibrate.top_up(cal, sum(latencies))
        result["calibration_s"] = cal
        result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                 .ru_maxrss / 1024)
        result["jobs"] = [
            dict(outcome(job, code, output, out), latency_s=latency)
            for job, (code, output), (_, out), latency
            in zip(jobs, codes, paths, latencies)]
        if tracer is not None:
            result["layers"] = layer_metrics(
                tracer, sum(j["bytes"] for j in result["jobs"]))
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
