"""Pinned reports: the bytes must not change across code versions.  The
files under `tests/data/` were written by `trailkit verify --suite all`
and `trailkit enumerate` on the configs below; regenerate them only for a
deliberate change of report content.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from trailkit import cli, validate_gcm
from trailkit.cartan_core import _standard_gcm, is_reduced

DATA = Path(__file__).parent / "data"

GOLDEN = [
    ("verify_g2_all.json", 0,
     {"cartan": [[2, -1], [-3, 2]], "word": [1, 2, 1, 2, 1, 2]}),
    ("verify_c3.json", 0,
     {"cartan": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
      "word": [3, 2, 3, 1, 2, 3, 1, 2, 1]}),
    # a known false trail: exit 5 with the forensic block in the report
    ("verify_b3_false_trail.json", 5,
     {"cartan": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
      "word": [1, 3, 2, 1, 3, 2, 1, 3, 2]}),
]


@pytest.mark.parametrize("name,code,job", GOLDEN,
                         ids=[g[0].removesuffix(".json") for g in GOLDEN])
def test_verify_report_matches_golden(tmp_path, name, code, job):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(job), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", str(cfg), "--out", str(out),
                     "--suite", "all"]) == code
    assert (out / "verify.json").read_bytes() == (DATA / name).read_bytes()


def test_constant_suites_run_once_per_process(tmp_path, monkeypatch):
    name, code, job = GOLDEN[0]
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(job), encoding="utf-8")
    argv = ["verify", "--config", str(cfg), "--suite", "all", "--out"]
    assert cli.main(argv + [str(tmp_path / "first")]) == code
    calls = []

    def counting(fn):
        def wrapped(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapped

    # the names the sl(2) and S-graph suites call; envelope fusions go
    # through giant's own binary_fusion
    monkeypatch.setattr(cli, "coefficient_A_oracle",
                        counting(cli.coefficient_A_oracle))
    monkeypatch.setattr(cli, "binary_fusion", counting(cli.binary_fusion))
    out = tmp_path / "second"
    assert cli.main(argv + [str(out)]) == code
    assert calls == []
    assert (out / "verify.json").read_bytes() == (DATA / name).read_bytes()


C5 = [[2, -1, 0, 0, 0], [-1, 2, -1, 0, 0], [0, -1, 2, -1, 0],
      [0, 0, -1, 2, -2], [0, 0, 0, -1, 2]]
E6 = [[2, 0, -1, 0, 0, 0], [0, 2, 0, -1, 0, 0], [-1, 0, 2, -1, 0, 0],
      [0, -1, -1, 2, -1, 0], [0, 0, 0, -1, 2, -1], [0, 0, 0, 0, -1, 2]]

# Greedy reduced words of w0 (the least admissible label at every step).
C5_GREEDY = [1, 2, 1, 3, 2, 1, 4, 3, 2, 1, 5, 4, 3, 2, 1, 5, 4, 3, 2, 5, 4,
             3, 5, 4, 5]
E6_GREEDY = [1, 2, 3, 1, 4, 2, 3, 1, 4, 3, 5, 4, 2, 3, 1, 4, 3, 5, 4, 2, 6,
             5, 4, 2, 3, 1, 4, 3, 5, 4, 2, 6, 5, 4, 3, 1]
F4_GREEDY = [1, 2, 1, 3, 2, 1, 3, 2, 3, 4, 3, 2, 1, 3, 2, 3, 4, 3, 2, 1, 3,
             2, 3, 4]
D6_GREEDY = [1, 2, 1, 3, 2, 1, 4, 3, 2, 1, 5, 4, 3, 2, 1, 6, 4, 3, 2, 1, 5,
             4, 3, 2, 6, 4, 3, 5, 4, 6]

# Both modules have weight spaces of dimension > 1.
GOLDEN_TRAILS = [
    ("trails_c5_t4.json", {"cartan": C5, "t": 4, "word": C5_GREEDY}),
    ("trails_e6_t2.json", {"cartan": E6, "t": 2, "word": E6_GREEDY}),
]


@pytest.mark.parametrize("name,job", GOLDEN_TRAILS,
                         ids=[g[0].removesuffix(".json") for g in GOLDEN_TRAILS])
def test_enumerate_report_matches_golden(tmp_path, name, job):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(job), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["enumerate", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "trails.json").read_bytes() == (DATA / name).read_bytes()


# Pinned by sha256 only: the report is about 1 MB and takes seconds to
# build, so tier-1 does not run it.  CI runs `trailkit verify` on each job
# in a fresh process and checks the report with `sha256sum -c`.
E6_W0 = [2, 6, 3, 4, 5, 6, 1, 4, 2, 4, 5, 3, 1, 4, 5, 6, 3, 2, 1, 4, 5, 2,
         6, 4, 3, 1, 4, 5, 2, 4, 3, 4, 5, 6, 2, 4]

GOLDEN_DIGESTS = [
    # E6 omega_1: 232 trails, all extremal
    ("verify_e6_t1_envelope.sha256", "envelope",
     {"cartan": E6, "t": 1, "word": E6_W0}),
]


@pytest.mark.parametrize("name,suite,job", GOLDEN_DIGESTS,
                         ids=[g[0].removesuffix(".sha256")
                              for g in GOLDEN_DIGESTS])
def test_digest_pins_are_well_formed(name, suite, job):
    digest, fname = (DATA / name).read_text(encoding="ascii").split()
    assert fname == "verify.json"
    assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")
    assert suite in cli.SUITES
    cartan = validate_gcm(job["cartan"])
    word = job["word"]      # a reduced word of w0: no letter extends it
    assert is_reduced(cartan, word)
    assert not any(is_reduced(cartan, word + [i]) for i in cartan.labels)


# The largest enumerate reports of the benchmark (210-370 KB, where most
# weight rows repeat), pinned by sha256; CI also runs each in a fresh
# process with `trailkit enumerate` and checks it with `sha256sum -c`.
GOLDEN_TRAIL_DIGESTS = [
    ("trails_c5_t5.sha256", {"cartan": C5, "t": 5, "word": C5_GREEDY}),
    ("trails_f4_t4.sha256",
     {"cartan": _standard_gcm("F", 4), "t": 4, "word": F4_GREEDY}),
    ("trails_d6_t6.sha256",
     {"cartan": _standard_gcm("D", 6), "t": 6, "word": D6_GREEDY}),
    ("trails_e6_t6.sha256", {"cartan": E6, "t": 6, "word": E6_GREEDY}),
]


@pytest.mark.parametrize("name,job", GOLDEN_TRAIL_DIGESTS,
                         ids=[g[0].removesuffix(".sha256")
                              for g in GOLDEN_TRAIL_DIGESTS])
def test_enumerate_report_matches_digest(tmp_path, name, job):
    digest, fname = (DATA / name).read_text(encoding="ascii").split()
    assert fname == "trails.json"
    cartan = validate_gcm(job["cartan"])
    word = job["word"]      # the greedy reduced word of w0
    for j in range(len(word) + 1):  # the least label that extends, or none
        least = next((i for i in cartan.labels
                      if is_reduced(cartan, word[:j] + [i])), None)
        assert least == (word[j] if j < len(word) else None)
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(job), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["enumerate", "--config", str(cfg), "--out", str(out)]) == 0
    report = (out / "trails.json").read_bytes()
    assert hashlib.sha256(report).hexdigest() == digest
