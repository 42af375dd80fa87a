"""The benchmark's inputs: fixed or exhaustive sets of trailkit job configs.

A workload is a list of jobs.  Each job is the argv tail and the JSON
config of one ``trailkit`` command.  The config sets never depend on the
seed; the seed only fixes the order in which the jobs are sent.

Cartan matrices follow the program's own conventions (Bourbaki labels;
in B_n the last simple root is short).  The counts asserted below pin the
inputs, so a change in the generators or in ``is_reduced`` cannot shrink
or grow a workload silently.
"""

from __future__ import annotations

import random

from trailkit.cartan_core import is_reduced, validate_gcm
from trailkit.rep_builder import weyl_dimension


def _gcm(family: str, n: int) -> list[list[int]]:
    a = [[2 * int(i == j) for j in range(n)] for i in range(n)]

    def edge(i, j, down=-1, up=-1):
        a[i][j], a[j][i] = down, up

    chain = {"A": n - 1, "B": n - 2, "C": n - 2, "D": n - 2}.get(family, 0)
    for i in range(chain):
        edge(i, i + 1)
    if family == "B":
        edge(n - 2, n - 1, down=-1, up=-2)
    elif family == "C":
        edge(n - 2, n - 1, down=-2, up=-1)
    elif family == "D":
        edge(n - 3, n - 1)
    elif family == "E":
        spine = [0, 2, 3, 4, 5, 6, 7][:n - 1]
        for x, y in zip(spine, spine[1:]):
            edge(x, y)
        edge(1, 3)
    elif family == "F":
        edge(0, 1)
        edge(1, 2, down=-1, up=-2)
        edge(2, 3)
    return a


def cartan(tag: str) -> list[list[int]]:
    """The Cartan matrix of a type such as ``"B3"``, checked by trailkit."""
    a = _gcm(tag[0], int(tag[1:]))
    if validate_gcm(a).type_tag != tag:
        raise ValueError(f"{tag}: matrix is classified as another type")
    return a


def reduced_words_of_w0(tag: str) -> list[tuple[int, ...]]:
    """Every reduced word of the longest element, in lexicographic order."""
    c = validate_gcm(cartan(tag))
    out: list[tuple[int, ...]] = []

    def extend(word: tuple[int, ...]) -> None:
        grown = [word + (i,) for i in c.labels if is_reduced(c, word + (i,))]
        if not grown:
            out.append(word)
        for w in grown:
            extend(w)

    extend(())
    return out


def greedy_w0(tag: str) -> tuple[int, ...]:
    """The reduced word of w0 that takes the smallest admissible label at
    every step."""
    c = validate_gcm(cartan(tag))
    word: tuple[int, ...] = ()
    while True:
        nxt = next((i for i in c.labels if is_reduced(c, word + (i,))), None)
        if nxt is None:
            return word
        word += (nxt,)


def module_dim(tag: str, t: int) -> int:
    """Dimension of the t-th fundamental module by the Weyl formula."""
    c = validate_gcm(cartan(tag))
    return weyl_dimension(c, c.fundamental_weight(t))


# Counts pinned from the probe that chose these workloads.
W0_WORD_COUNTS = {"A3": 16, "B3": 42, "C3": 42}
GREEDY_LENGTHS = {"B4": 16, "C4": 16, "D4": 12, "D5": 20, "B5": 25,
                  "F4": 24, "C5": 25, "E6": 36, "D6": 30}
LADDER = [("B4", 4), ("C4", 4), ("D4", 4), ("D5", 5), ("B5", 5), ("F4", 4)]
ENUMERATE = [("C5", 5), ("C5", 4), ("F4", 1), ("E6", 2), ("E6", 6),
             ("D6", 6), ("F4", 4)]
MODULE_DIMS = {("B4", 4): 16, ("C4", 4): 42, ("D4", 4): 8, ("D5", 5): 16,
               ("B5", 5): 32, ("F4", 4): 26, ("C5", 5): 132,
               ("C5", 4): 165, ("F4", 1): 52, ("E6", 2): 78, ("E6", 6): 27,
               ("D6", 6): 32}


class Job:
    """One command of a batch: what to run and how to name it in results."""

    def __init__(self, command: list[str], tag: str, word, t: int | None):
        self.command = command
        self.tag = tag
        self.word = tuple(word)
        self.t = t
        self.config = {"cartan": _gcm(tag[0], int(tag[1:])),
                       "word": list(word)}
        if t is not None:
            self.config["t"] = t

    @property
    def key(self) -> str:
        word = "".join(map(str, self.word))
        t = "all" if self.t is None else str(self.t)
        return f"{self.command[0]}:{self.tag}:{word}:t={t}"


def _check(name: str, got, want) -> None:
    if got != want:
        raise ValueError(f"workload input drifted: {name} is {got}, "
                         f"expected {want}")


def _greedy(tag: str) -> tuple[int, ...]:
    word = greedy_w0(tag)
    _check(f"length of greedy w0 of {tag}", len(word), GREEDY_LENGTHS[tag])
    return word


def _fixed_ladder(command: list[str], instances) -> list[Job]:
    jobs = []
    for tag, t in instances:
        _check(f"dim of {tag} omega_{t}", module_dim(tag, t),
               MODULE_DIMS[(tag, t)])
        jobs.append(Job(command, tag, _greedy(tag), t))
    return jobs


def sweep_rank3() -> list[Job]:
    jobs = []
    for tag, count in W0_WORD_COUNTS.items():
        words = reduced_words_of_w0(tag)
        _check(f"number of reduced words of w0 in {tag}", len(words), count)
        jobs += [Job(["verify", "--suite", "all"], tag, w, None)
                 for w in words]
    return jobs


def ladder_envelope() -> list[Job]:
    return _fixed_ladder(["verify", "--suite", "envelope"], LADDER)


def build_enumerate() -> list[Job]:
    return _fixed_ladder(["enumerate"], ENUMERATE)


WORKLOADS = {
    "sweep_rank3": sweep_rank3,
    "ladder_envelope": ladder_envelope,
    "build_enumerate": build_enumerate,
}


def jobs_for(workload: str, seed: int) -> list[Job]:
    """The workload's jobs, in the order that the seed fixes."""
    jobs = WORKLOADS[workload]()
    random.Random(seed).shuffle(jobs)
    return jobs
