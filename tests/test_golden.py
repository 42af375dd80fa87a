"""Pinned reports: the bytes must not change across code versions.

Each pin under `tests/data/` was written by the command beside it in
``PINS`` on its job.  A ``.json`` pin is the report itself; a ``.sha256``
pin holds only the report's digest, for reports too large to keep.
Regenerate a pin only for a deliberate change of report content.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from trailkit import cli, validate_gcm
from trailkit.cartan_core import _standard_gcm, is_reduced

DATA = Path(__file__).parent / "data"

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
GREEDY_WORDS = {"C5": (C5, C5_GREEDY), "E6": (E6, E6_GREEDY),
                "F4": (_standard_gcm("F", 4), F4_GREEDY),
                "D6": (_standard_gcm("D", 6), D6_GREEDY)}

E6_W0 = [2, 6, 3, 4, 5, 6, 1, 4, 2, 4, 5, 3, 1, 4, 5, 6, 3, 2, 1, 4, 5, 2,
         6, 4, 3, 1, 4, 5, 2, 4, 3, 4, 5, 6, 2, 4]

# (pin file, command words, exit code, job)
PINS = [
    ("verify_g2_all.json", "verify --suite all", 0,
     {"cartan": [[2, -1], [-3, 2]], "word": [1, 2, 1, 2, 1, 2]}),
    ("verify_c3.json", "verify --suite all", 0,
     {"cartan": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
      "word": [3, 2, 3, 1, 2, 3, 1, 2, 1]}),
    # a known false trail: exit 5 with the forensic block in the report
    ("verify_b3_false_trail.json", "verify --suite all", 5,
     {"cartan": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
      "word": [1, 3, 2, 1, 3, 2, 1, 3, 2]}),
    # E6 omega_1: 232 trails, all extremal, in a 1 MB report
    ("verify_e6_t1_envelope.sha256", "verify --suite envelope", 0,
     {"cartan": E6, "t": 1, "word": E6_W0}),
    # both modules have weight spaces of dimension > 1
    ("trails_c5_t4.json", "enumerate", 0,
     {"cartan": C5, "t": 4, "word": C5_GREEDY}),
    ("trails_e6_t2.json", "enumerate", 0,
     {"cartan": E6, "t": 2, "word": E6_GREEDY}),
    # the largest enumerate reports of the benchmark (210-370 KB, where
    # most weight rows repeat)
    ("trails_c5_t5.sha256", "enumerate", 0,
     {"cartan": C5, "t": 5, "word": C5_GREEDY}),
    ("trails_f4_t4.sha256", "enumerate", 0,
     {"cartan": _standard_gcm("F", 4), "t": 4, "word": F4_GREEDY}),
    ("trails_d6_t6.sha256", "enumerate", 0,
     {"cartan": _standard_gcm("D", 6), "t": 6, "word": D6_GREEDY}),
    ("trails_e6_t6.sha256", "enumerate", 0,
     {"cartan": E6, "t": 6, "word": E6_GREEDY}),
]

REPORT = {"verify": "verify.json", "enumerate": "trails.json"}


def pin_id(pin: str) -> str:
    return pin.rsplit(".", 1)[0]


def matches_pin(pin: str, report: bytes) -> bool:
    """Whether ``report`` has the bytes of a ``.json`` pin or the digest
    of a ``.sha256`` pin."""
    if pin.endswith(".json"):
        return report == (DATA / pin).read_bytes()
    digest = (DATA / pin).read_text(encoding="ascii").split()[0]
    return hashlib.sha256(report).hexdigest() == digest


@pytest.mark.parametrize("pin,command,code,job", PINS,
                         ids=[pin_id(p[0]) for p in PINS])
def test_report_matches_pin(tmp_path, pin, command, code, job):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(job), encoding="utf-8")
    out = tmp_path / "out"
    argv = command.split()
    assert cli.main(argv + ["--config", str(cfg), "--out", str(out)]) == code
    assert matches_pin(pin, (out / REPORT[argv[0]]).read_bytes())


DIGEST_PINS = [p for p in PINS if p[0].endswith(".sha256")]


@pytest.mark.parametrize("pin,command,code,job", DIGEST_PINS,
                         ids=[pin_id(p[0]) for p in DIGEST_PINS])
def test_digest_pins_are_well_formed(pin, command, code, job):
    digest, fname = (DATA / pin).read_text(encoding="ascii").split()
    assert fname == REPORT[command.split()[0]]
    assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")
    cartan = validate_gcm(job["cartan"])
    word = job["word"]      # a reduced word of w0: no letter extends it
    assert is_reduced(cartan, word)
    assert not any(is_reduced(cartan, word + [i]) for i in cartan.labels)


@pytest.mark.parametrize("name", GREEDY_WORDS)
def test_greedy_words_take_the_least_label_at_every_step(name):
    matrix, word = GREEDY_WORDS[name]
    cartan = validate_gcm(matrix)
    for j in range(len(word) + 1):  # the least label that extends, or none
        least = next((i for i in cartan.labels
                      if is_reduced(cartan, word[:j] + [i])), None)
        assert least == (word[j] if j < len(word) else None)


def test_constant_suites_run_once_per_process(tmp_path, monkeypatch):
    pin, command, code, job = PINS[0]
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(job), encoding="utf-8")
    argv = command.split() + ["--config", str(cfg), "--out"]
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
    assert matches_pin(pin, (out / "verify.json").read_bytes())
