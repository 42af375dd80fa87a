from __future__ import annotations

import sys

import pytest

from trailkit import WordJ, build_fundamental, construct_envelope, validate_gcm

GCM = {
    "A1": [[2]],
    "A2": [[2, -1], [-1, 2]],
    "A3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    "A4": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
    "B2": [[2, -1], [-2, 2]],
    "B3": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
    "C2": [[2, -2], [-1, 2]],
    "C3": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
    "D4": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
    "G2": [[2, -1], [-3, 2]],
}

# Reduced words for the longest element; B2r is the B2 word started from the
# other letter.
FULL_WORDS = {
    "A2": (1, 2, 1),
    "A3": (1, 2, 1, 3, 2, 1),
    "B2": (1, 2, 1, 2),
    "B2r": (2, 1, 2, 1),
    "C2": (1, 2, 1, 2),
    "G2": (1, 2, 1, 2, 1, 2),
}

# (word key, t) pairs covering every fundamental of every fixture word.
ENVELOPE_FIXTURES = [
    ("A2", 1), ("A2", 2),
    ("A3", 1), ("A3", 2), ("A3", 3),
    ("B2", 1), ("B2", 2),
    ("B2r", 1), ("B2r", 2),
    ("C2", 1), ("C2", 2),
    ("G2", 1), ("G2", 2),
]


def cartan_key(word_key: str) -> str:
    return "B2" if word_key == "B2r" else word_key


@pytest.fixture(scope="session")
def cartans():
    return {name: validate_gcm(m) for name, m in GCM.items()}


@pytest.fixture(scope="session")
def full_words(cartans):
    return {key: WordJ(cartans[cartan_key(key)], letters)
            for key, letters in FULL_WORDS.items()}


@pytest.fixture(scope="session")
def modules(cartans):
    out = {}
    for name in ("A2", "A3", "B2", "C2", "G2"):
        c = cartans[name]
        for t in c.labels:
            out[name, t] = build_fundamental(c, t)
    return out


@pytest.fixture(scope="session")
def envelopes(modules, full_words):
    out = {}
    for key, t in ENVELOPE_FIXTURES:
        out[key, t] = construct_envelope(
            modules[cartan_key(key), t], full_words[key])
    return out


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    results = getattr(mod, "RESULTS", None)
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(results):
        status, desc, dt = results[num]
        terminalreporter.write_line(
            f"ACCEPTANCE {num}: {status} ({dt:.1f}s) - {desc}")
