"""Command-line front door: JSON job configs in, JSON/DOT reports out.

Subcommands::

    trailkit enumerate --config job.json [--out DIR]
    trailkit sgraph    --config job.json [--out DIR]
    trailkit verify    --config job.json [--out DIR] [--suite NAME]
                       [--depth N]

The config carries the instance: ``{"cartan": [[...]], "word": [...]}``
plus optional ``"t"`` (default: every label), ``"c"`` or ``"class"`` for
the sgraph command, ``"depth"`` and output overrides.  Flags win over
config keys.  The crystal has one convention, the dual one: a
``"convention"`` key of ``"dual"``, left by older job files, is ignored,
and any other value is a config error.  Exit codes: 0 success, 2
malformed config or an output path that cannot be written, 3 valid
matrix outside finite type, 4 a checked contract failed, 5 false-trail
detection (the forensic block is written to the report and echoed on
stderr).

All JSON is written with sorted keys and all listings in sorted order, so
a fixed config produces byte-identical reports; graphs are emitted as DOT.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from json.encoder import encode_basestring_ascii

from .bj_crystal import generate_binf
from .cartan_core import CartanData, WordJ, require_finite, validate_gcm
from .errors import (ConfigError, FalseTrailDetected, NotFiniteTypeError,
                     TrailkitError)
from .giant import (check_constructibility, construct_envelope, epsilon_star,
                    extremality_report)
from .rep_builder import build_fundamental, weyl_dimension
from .sgraph import (CoeffVector, binary_fusion, display_tuple,
                     integer_points, is_connected, line_count,
                     neighbor_graph, to_dot)
from .sl2_engine import (Sl2Config, coefficient_A, coefficient_A_oracle,
                         vanishing_identity)
from .trails import (driving_trail, enumerate_trails, face_function,
                     group_ts_classes, kashiwara_function, trail_function)

SUITES = ("sl2", "sgraph", "trails", "envelope", "all")

# Largest box prod(c_i + 1) that an explicit "c" may span.  `sgraph` scans
# the whole box for lattice points and counts the points on every line
# through each of them; at 512 the slowest shape, c = [511], takes about
# 0.8 s.
SGRAPH_BOX_LIMIT = 512

# Largest crystal depth.  The crystal grows fast with the depth: on the E6
# greedy w0 it has 405, 3,235 and 19,886 elements at depths 4, 6 and 8,
# and generating them alone takes 0.02, 0.22 and 1.3 s (2-vCPU VM).
DEPTH_LIMIT = 4

# Largest module dimension that a command builds.  Every t that enumerate,
# the envelope suite or a class selector builds is checked by its Weyl
# dimension, a closed form, before the first build; the build itself has
# no bound.  A fresh process builds E6 omega_4 (dim 2,925), the largest
# fundamental module of rank <= 6, in 0.41 s, A14 omega_7 (dim 6,435) in
# 1.3 s and A16 omega_8 (dim 24,310) in 4.8 s (2-vCPU VM), while E7
# omega_4 (dim 365,750) runs for minutes.
MODULE_DIM_LIMIT = 10000


class JobConfig:
    """Validated instance data for one invocation."""

    def __init__(self, cartan: CartanData, word: WordJ, t: int | None,
                 c: tuple[int, ...] | None, selector: dict | None,
                 depth: int, inject_spurious: bool):
        self.cartan = cartan
        self.word = word
        self.t = t
        self.c = c
        self.selector = selector
        self.depth = depth
        self.inject_spurious = inject_spurious

    @property
    def labels(self):
        return [self.t] if self.t is not None else list(self.cartan.labels)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _int_list(path: str, key: str, value) -> tuple[int, ...]:
    if not (isinstance(value, list) and all(_is_int(x) for x in value)):
        raise ConfigError(f"{path}: {key} must be a list of integers")
    return tuple(value)


def _check_box(where: str, c: tuple[int, ...]) -> None:
    """Reject a coefficient tuple whose box prod(c_i + 1) exceeds
    ``SGRAPH_BOX_LIMIT`` lattice points."""
    box = 1
    for x in c:
        box *= x + 1
        if box > SGRAPH_BOX_LIMIT:
            raise ConfigError(
                f"{where}: c spans more than {SGRAPH_BOX_LIMIT} lattice "
                f"points (the product of c_i + 1)")


@functools.lru_cache(maxsize=64)
def _gcm_of(matrix: tuple[tuple[int, ...], ...]) -> CartanData:
    """The validated matrix of exact ints.  ``CartanData`` is immutable and
    depends on the entries alone, so a process validates each matrix once;
    the memo is bounded, and nothing needs to clear it."""
    return validate_gcm(matrix)


def load_config(path: str, args) -> JobConfig:
    """Read, validate, and merge the job file with flag overrides.

    Integer fields take JSON integers only; booleans are rejected.  An
    explicit ``c`` may span at most ``SGRAPH_BOX_LIMIT`` lattice points,
    and ``depth`` may not exceed ``DEPTH_LIMIT``.  ``inject_spurious``
    takes a JSON boolean only, and ``convention`` the string ``"dual"``
    only, which changes nothing.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as e:
        raise ConfigError(f"{path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: not valid JSON ({e})") from e
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    for key in ("cartan", "word"):
        if key not in raw:
            raise ConfigError(f"{path}: missing required key {key!r}")
    matrix = raw["cartan"]
    if not (isinstance(matrix, list)
            and all(isinstance(row, list) for row in matrix)):
        raise ConfigError(f"{path}: cartan must be a list of integer rows")
    key = tuple(map(tuple, matrix))
    try:
        # a float or a bool equals an int as a key, so only exact ints
        # reach the memo; any other entry fails validation
        if all(type(x) is int for row in key for x in row):
            cartan = _gcm_of(key)
        else:
            cartan = validate_gcm(matrix)
    except NotFiniteTypeError:
        raise
    except TrailkitError as e:
        raise ConfigError(f"{path}: cartan: {e}") from e
    require_finite(cartan)
    letters = _int_list(path, "word", raw["word"])
    try:
        word = WordJ(cartan, letters)
    except TrailkitError as e:
        raise ConfigError(f"{path}: word: {e}") from e
    t = raw.get("t")
    if t is not None:
        if not _is_int(t) or t not in word.letters:
            raise ConfigError(
                f"{path}: t={t!r} is not an integer occurring in the word")
    c = raw.get("c")
    if c is not None:
        c = _int_list(path, "c", c)
        if any(x < 0 for x in c):
            raise ConfigError(f"{path}: c entries must be non-negative")
        _check_box(path, c)
    selector = raw.get("class")
    if selector is not None:
        if not isinstance(selector, dict):
            raise ConfigError(f"{path}: class selector must be an object")
        for key in ("t", "s", "j"):
            if not _is_int(selector.get(key)):
                raise ConfigError(
                    f"{path}: class selector needs an integer {key!r}")
        if selector["t"] not in word.letters:
            raise ConfigError(
                f"{path}: class selector t does not occur in the word")
        if selector["s"] not in cartan.labels:
            raise ConfigError(
                f"{path}: class selector s must be a label in 1..{cartan.n}")
        if not 1 <= selector["j"] <= word.m:
            raise ConfigError(
                f"{path}: class selector j must lie in 1..{word.m}")
        if t is None:
            t = selector["t"]
    depth = getattr(args, "depth", None)
    depth = raw.get("depth", 4) if depth is None else depth
    if not _is_int(depth) or not 0 <= depth <= DEPTH_LIMIT:
        raise ConfigError(
            f"{path}: depth must be an integer in 0..{DEPTH_LIMIT}")
    if raw.get("convention", "dual") != "dual":
        raise ConfigError(f"{path}: convention must be \"dual\", the only "
                          "crystal convention that remains")
    inject = raw.get("inject_spurious", False)
    if not isinstance(inject, bool):
        raise ConfigError(f"{path}: inject_spurious must be true or false")
    inject = inject or getattr(args, "inject_spurious", False)
    return JobConfig(cartan, word, t, c, selector, depth, inject)


# Pieces of report text buffered before one write to the file.  Writing a
# 370 KB trail dump allocated at most 58 KiB with 256 pieces (traced with
# tracemalloc), 75 KiB with `json.dump` and 659 KiB with 4096 pieces.
_WRITE_CHUNK = 256

_LEAF_TEXT = {True: "true", False: "false", None: "null"}


def _shared_listings(obj) -> set[int]:
    """ids of the listings (non-empty lists or tuples whose first item is a
    dict) that ``obj`` holds at more than one place.  The search runs
    through dicts and listings only."""
    seen: set[int] = set()
    shared: set[int] = set()
    stack = [[obj]]
    while stack:
        o = stack.pop()
        for v in (o.values() if type(o) is dict else o):
            if type(v) is dict:
                stack.append(v)
            elif type(v) in (list, tuple) and v and type(v[0]) is dict:
                if id(v) in seen:
                    shared.add(id(v))
                else:
                    seen.add(id(v))
                    stack.append(v)
    return shared


class _RowTexts(dict):
    """row -> the text of a row of exact ints whose brackets sit at the
    indentation ``nl``, encoded on first use.  A row is a tuple, and only
    rows of exact ints may be looked up: (True, 1) == (1, 1) as a key."""

    def __init__(self, nl: str):
        super().__init__()
        self.nl = nl
        self.sep = "," + nl + " "

    def __missing__(self, x: tuple[int, ...]) -> str:
        nl = self.nl
        text = self[x] = ("[" + nl + " " + self.sep.join(
            map(int.__repr__, x)) + nl + "]" if x else "[]")
        return text


class _RowCaches(dict):
    """nl -> the _RowTexts of the indentation nl, made on first use."""

    def __missing__(self, nl: str) -> _RowTexts:
        rows = self[nl] = _RowTexts(nl)
        return rows


def _write_json(path: str, obj) -> None:
    """Write ``obj`` exactly as ``json.dump(obj, fh, sort_keys=True,
    indent=1)`` followed by a newline would, in one pass and in bounded
    chunks.

    Reports hold dicts (str or int keys), lists, tuples, ints, bools, strs
    and None; anything else, a float or a ``Fraction`` included, raises
    TypeError.  Dict items are sorted by their original keys, so keys of
    mixed types raise TypeError as they do in the stdlib encoder.  A listing
    (a list whose first item is a dict) that ``obj`` holds at several places
    is encoded once per indentation: its first encoding is kept whole, and
    later ones reuse its text.  Likewise each distinct row of exact ints,
    a list or a tuple, is encoded once per indentation.
    """
    shared = _shared_listings(obj)
    texts: dict[tuple[int, str], str] = {}  # (id, nl) -> encoded text
    rows = _RowCaches()
    enc = encode_basestring_ascii
    # the text of a leaf, by its exact type; a subclass goes the long way
    leaf = {str: enc, int: int.__repr__, bool: _LEAF_TEXT.__getitem__,
            type(None): _LEAF_TEXT.__getitem__}
    with open(path, "w", encoding="utf-8") as fh:
        out: list[str] = []
        append = out.append
        keeping = 0     # shared listings being encoded; out is not written

        def emit(o, nl: str) -> None:
            # nl is a newline plus the indentation of the enclosing level.
            nonlocal keeping
            if isinstance(o, dict):
                if not o:
                    append("{}")
                    return
                inner = nl + " "
                sep = "{" + inner
                for k, v in sorted(o.items()):
                    if isinstance(k, str):
                        key = k
                    elif isinstance(k, int) and not isinstance(k, bool):
                        key = int.__repr__(k)
                    else:
                        raise TypeError(f"keys must be str or int, not "
                                        f"{type(k).__name__}")
                    text = leaf.get(type(v))
                    if text is not None:
                        append(sep + enc(key) + ": " + text(v))
                    else:
                        append(sep + enc(key) + ": ")
                        emit(v, inner)
                    sep = "," + inner
                append(nl + "}")
            elif isinstance(o, (list, tuple)):
                if not o:
                    append("[]")
                    return
                inner = nl + " "
                types = set(map(type, o))
                if types == {int}:  # the common leaf
                    append(rows[nl][tuple(o)])
                    return
                if types <= {list, tuple} and set(
                        map(type, itertools.chain.from_iterable(o))) <= {int}:
                    # a list of int rows: weights, coordinates, terms
                    append("[" + inner + ("," + inner).join(map(
                        rows[inner].__getitem__, map(tuple, o))) + nl + "]")
                    return
                known = (id(o), nl) if id(o) in shared else None
                if known in texts:
                    append(texts[known])
                    return
                if known:
                    start = len(out)
                    keeping += 1
                sep = "[" + inner
                for x in o:
                    text = leaf.get(type(x))
                    if text is not None:
                        append(sep + text(x))
                    else:
                        append(sep)
                        emit(x, inner)
                    sep = "," + inner
                append(nl + "]")
                if known:
                    keeping -= 1
                    texts[known] = "".join(out[start:])
                    out[start:] = [texts[known]]
            elif isinstance(o, str):
                append(enc(o))
            elif o is None or o is True or o is False:
                append(_LEAF_TEXT[o])
            elif isinstance(o, int):
                append(int.__repr__(o))
            else:
                raise TypeError(f"Object of type {type(o).__name__} is not "
                                f"JSON serializable")
            if len(out) >= _WRITE_CHUNK and not keeping:
                fh.write("".join(out))
                out.clear()

        emit(obj, "\n")
        append("\n")
        fh.write("".join(out))


def _require_labels(cfg: JobConfig, labels, why: str) -> None:
    """Reject a word that lacks one of ``labels``, before any module is
    built."""
    for s in labels:
        if s not in cfg.word.letters:
            raise ConfigError(f"label {s} does not occur in the word "
                              f"{list(cfg.word.letters)}; {why}")


def _check_module_dims(cfg: JobConfig, labels) -> None:
    """Reject, before any module is built, a t in ``labels`` whose module
    V(omega_t) has a Weyl dimension above ``MODULE_DIM_LIMIT``."""
    for t in labels:
        dim = weyl_dimension(cfg.cartan, cfg.cartan.fundamental_weight(t))
        if dim > MODULE_DIM_LIMIT:
            raise ConfigError(f"the module of t={t} has dimension {dim}, "
                              f"above the limit of {MODULE_DIM_LIMIT}")


def cmd_enumerate(cfg: JobConfig, out: str) -> int:
    """Module build + trail dump with per-trivialization-step counts."""
    _require_labels(cfg, cfg.labels, "without t, every label is enumerated")
    _check_module_dims(cfg, cfg.labels)
    modules = []
    for t in cfg.labels:
        M = build_fundamental(cfg.cartan, t)
        trails = enumerate_trails(M, cfg.word)
        by_phi: dict[int, int] = {}
        for K in trails:
            by_phi[K.phi] = by_phi.get(K.phi, 0) + 1
        modules.append({
            "t": t,
            "dim": M.dim,
            "trail_count": len(trails),
            "by_phi": {str(j): by_phi[j] for j in sorted(by_phi)},
            "trails": [K.to_json_dict() for K in trails],
        })
    report = {
        "cartan": [list(row) for row in cfg.cartan.gcm],
        "word": list(cfg.word.letters),
        "modules": modules,
    }
    path = os.path.join(out, "trails.json")
    _write_json(path, report)
    total = sum(m["trail_count"] for m in modules)
    print(f"enumerate: {len(modules)} module(s), {total} trail(s) -> {path}")
    return 0


def _sgraph_payload(c: tuple[int, ...]) -> tuple[dict, str]:
    cv = CoeffVector.make(c)
    g = binary_fusion(cv)
    pts = sorted(integer_points(cv))
    counts = {str(u): [line_count(cv, p, u) for p in pts]
              for u in range(1, cv.n + 1)}
    payload = {
        "c": list(c),
        "vertices": [{"label": v.label, "coords": list(v.func),
                      "display": list(display_tuple(v.func))}
                     for v in g.vertices],
        "points": [list(p) for p in pts],
        "extremal_points": [list(p) for p in sorted(g.functions())],
        "line_counts": counts,
    }
    return payload, to_dot(g)


def cmd_sgraph(cfg: JobConfig, out: str) -> int:
    """One graph per requested coefficient tuple, as DOT plus a table.

    A class selector's coefficient tuples are held to the same box limit
    as an explicit ``c``, all of them before the first graph is computed.
    """
    jobs: list[tuple[str, tuple[int, ...], dict | None]] = []
    if cfg.c is not None:
        jobs.append(("sgraph", cfg.c, None))
    elif cfg.selector is not None:
        sel = cfg.selector
        t, s, j = sel["t"], sel["s"], sel["j"]
        if cfg.word.letters[j - 1] != s:
            raise ConfigError(
                f"class selector: position {j} carries letter "
                f"{cfg.word.letters[j - 1]}, not s={s}")
        _check_module_dims(cfg, [t])
        M = build_fundamental(cfg.cartan, t)
        trails = enumerate_trails(M, cfg.word)
        classes = group_ts_classes(trails, s, j)
        for idx, cls in enumerate(sorted(classes, key=lambda x: x.c)):
            _check_box(f"class selector t={t} s={s} j={j}, class {idx}",
                       cls.c)
            jobs.append((f"sgraph_class{idx}", cls.c,
                         {"t": t, "s": s, "j": j, "a": list(cls.a),
                          "size": len(cls.members)}))
        if not jobs:
            raise ConfigError(f"no type-{s} classes at step {j}")
    else:
        raise ConfigError("sgraph needs either 'c' or a 'class' selector")
    written = []
    for stem, c, meta in jobs:
        payload, dot = _sgraph_payload(c)
        if meta:
            payload["class"] = meta
        _write_json(os.path.join(out, stem + ".json"), payload)
        with open(os.path.join(out, stem + ".dot"), "w",
                  encoding="utf-8") as fh:
            fh.write(dot)
        written.append(stem)
    print(f"sgraph: wrote {', '.join(written)} under {out}")
    return 0


@functools.cache
def _suite_sl2() -> dict:
    """The closed form against the recurrence, then the vanishing sum, over
    one fixed grid; the suite takes no input, so the grid is checked once
    per process, and every report holds the one dict."""
    checked = failed = 0
    memo: dict[tuple, int] = {}
    for n in (1, 2):
        for combo in itertools.product(range(3), repeat=3 * n):
            a, k, l = combo[:n], combo[n:2 * n], combo[2 * n:]
            cfg = Sl2Config(a, k, l)
            checked += 1
            if coefficient_A(cfg) != coefficient_A_oracle(cfg, memo):
                failed += 1
    vchecked = vfailed = 0
    for q in range(1, 4):
        for p1 in range(5):
            for p2 in range(q, 5):
                for u in range(q):
                    vchecked += 1
                    if vanishing_identity(q, p1, p2, u) != 0:
                        vfailed += 1
    return {"closed_form_vs_recurrence": {"checked": checked,
                                          "failed": failed},
            "vanishing_sum": {"checked": vchecked, "failed": vfailed},
            "ok": failed == 0 and vfailed == 0}


@functools.cache
def _suite_sgraph() -> dict:
    """The S-graph fusions for r <= 3 and entries <= 2; input-free like the
    sl(2) grid, so fused once per process."""
    checked = failed = 0
    for r in (1, 2, 3):
        for c in itertools.product(range(3), repeat=r):
            cv = CoeffVector.make(c)
            g = binary_fusion(cv)
            checked += 1
            ok = len(g.vertices) == 2 ** r
            for j in range(1, cv.n + 1):
                nodes, edges = neighbor_graph(g, j)
                ok = ok and is_connected(nodes, edges)
            if not ok:
                failed += 1
    return {"fusions": {"checked": checked, "failed": failed},
            "ok": failed == 0}


def _suite_trails(cfg: JobConfig) -> dict:
    word = cfg.word
    checked = failed = 0
    for s in cfg.cartan.labels:
        for k in range(2, word.count(s) + 1):
            want = (kashiwara_function(word, s, k - 1)
                    - kashiwara_function(word, s, k))
            checked += 1
            if face_function(word, s, k)[1] != want:
                failed += 1
    return {"face_identity": {"checked": checked, "failed": failed},
            "ok": failed == 0}


def _suite_envelope(cfg: JobConfig, forensics: dict) -> dict:
    out: dict = {"modules": [], "ok": True}
    crystal = None  # (elements, listing): the same for every t
    for t in cfg.labels:
        M = build_fundamental(cfg.cartan, t)
        spurious = None
        if cfg.inject_spurious:
            spurious = trail_function(driving_trail(cfg.word, t)).scale(2)
        try:
            env = construct_envelope(M, cfg.word, spurious=spurious)
        except FalseTrailDetected as e:
            forensics["false_trail"] = {
                "t": t,
                "step": e.step,
                "class": repr(e.class_key),
                "function": e.function.terms,
                "nearest": None if e.nearest is None else e.nearest.terms,
                "detail": e.detail,
            }
            raise
        rep = check_constructibility(env)
        if crystal is None:
            elements = generate_binf(cfg.word, cfg.depth)
            crystal = (elements, [{"coords": b, "total": sum(m for _, m in b)}
                                  for b in elements])
        # every label's maximum equals the overall one, or this raises; a
        # label whose vertex functions are all the settled functions takes
        # the overall maximum by definition, so only the others are checked
        partial = env.partial_labels(cfg.cartan.labels)
        if partial:
            epsilon_star(env, partial, crystal[0])
        entry = {
            "t": t,
            "functions": len(env.functions),
            "constructible": rep["pass"],
            "constructible_strong": rep["pass_strong"],
            "steps": rep["steps"],
            "epsilon_star_s_independent": True,
            "epsilon_star_elements": crystal[1],
            "extremality": extremality_report(env),
            "layers": env.to_json_dict()["layers"],
        }
        out["modules"].append(entry)
        if not (rep["pass"] and rep["pass_strong"]):
            out["ok"] = False
    return out


def cmd_verify(cfg: JobConfig, out: str, suite: str) -> int:
    """Run the selected check suites; write one combined report."""
    if suite in ("envelope", "all"):
        _require_labels(cfg, cfg.cartan.labels,
                        "the envelope suite's crystal lowers by every label")
        _check_module_dims(cfg, cfg.labels)
    report: dict = {"suite": suite}
    path = os.path.join(out, "verify.json")
    forensics: dict = {}
    try:
        if suite in ("sl2", "all"):
            report["sl2"] = _suite_sl2()
        if suite in ("sgraph", "all"):
            report["sgraph"] = _suite_sgraph()
        if suite in ("trails", "all"):
            report["trails"] = _suite_trails(cfg)
        if suite in ("envelope", "all"):
            report["envelope"] = _suite_envelope(cfg, forensics)
    except FalseTrailDetected as e:
        report["false_trail"] = forensics["false_trail"]
        _write_json(path, report)
        print(f"verify: FALSE TRAIL -> {path}", file=sys.stderr)
        print(str(e), file=sys.stderr)
        return 5
    _write_json(path, report)
    bad = [name for name in ("sl2", "sgraph", "trails", "envelope")
           if name in report and not report[name]["ok"]]
    if bad:
        print(f"verify: FAILED ({', '.join(bad)}) -> {path}",
              file=sys.stderr)
        return 4
    print(f"verify: ok -> {path}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, so every call of ``main`` can share it."""
    parser = argparse.ArgumentParser(
        prog="trailkit",
        description="exact trail enumeration, S-graphs, and verification")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (("enumerate", "dump all trails of the instance"),
                           ("sgraph", "emit one S-graph as DOT + JSON"),
                           ("verify", "run check suites and report")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="job JSON path")
        p.add_argument("--out", default=".", help="output directory")
        if name == "verify":
            p.add_argument("--depth", type=int, default=None,
                           help="crystal generation depth, at most "
                           f"{DEPTH_LIMIT} (default 4)")
            p.add_argument("--suite", choices=SUITES, default="all")
            p.add_argument("--inject-spurious", action="store_true",
                           help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args)
        os.makedirs(args.out, exist_ok=True)
        if args.command == "enumerate":
            return cmd_enumerate(cfg, args.out)
        if args.command == "sgraph":
            return cmd_sgraph(cfg, args.out)
        return cmd_verify(cfg, args.out, args.suite)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"output error: {e}", file=sys.stderr)
        return 2
    except NotFiniteTypeError as e:
        print(f"not finite type: {e}", file=sys.stderr)
        return 3
    except TrailkitError as e:
        print(f"consistency failure: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
