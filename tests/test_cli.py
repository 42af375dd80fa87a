from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from trailkit import (WordJ, build_fundamental, cli, construct_envelope,
                      giant, linalg, validate_gcm)
from trailkit.bj_crystal import generate_binf
from trailkit.cartan_core import _standard_gcm
from trailkit.rep_builder import weyl_dimension
from trailkit.sgraph import CoeffVector, integer_points

from oracles import evaluate, lp_extremal_points
from test_golden import PINS, matches_pin
from test_rep_builder import RANK_6_TYPES


def write_config(tmp_path, obj, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


A2_JOB = {"cartan": [[2, -1], [-1, 2]], "word": [1, 2, 1]}
G2_JOB = {"cartan": [[2, -1], [-3, 2]], "word": [1, 2, 1, 2, 1, 2]}


# --- enumerate ---------------------------------------------------------------


def test_enumerate_a2(tmp_path, capsys):
    cfg = write_config(tmp_path, A2_JOB)
    assert cli.main(["enumerate", "--config", cfg, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "2 module(s), 3 trail(s)" in out
    report = json.loads((tmp_path / "trails.json").read_text())
    assert report["cartan"] == A2_JOB["cartan"]
    assert report["word"] == [1, 2, 1]
    assert [m["t"] for m in report["modules"]] == [1, 2]
    first = report["modules"][0]
    assert first["dim"] == 3
    assert first["trail_count"] == 1
    assert first["by_phi"] == {"1": 1}
    assert first["trails"] == [{"exps": [0, 1, 0],
                               "gamma": [[1, -1], [1, -1], [0, 1], [0, 1]],
                               "phi": 1, "z": {"1": 1}}]


def test_enumerate_single_t(tmp_path):
    cfg = write_config(tmp_path, dict(A2_JOB, t=2))
    assert cli.main(["enumerate", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "trails.json").read_text())
    assert [m["t"] for m in report["modules"]] == [2]
    assert report["modules"][0]["trail_count"] == 2


def test_enumerate_creates_out_dir(tmp_path):
    cfg = write_config(tmp_path, A2_JOB)
    out = tmp_path / "deep" / "er"
    assert cli.main(["enumerate", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "trails.json").is_file()


_REPORT_OF = {"enumerate": ("trails.json", A2_JOB),
            "sgraph": ("sgraph.json", dict(A2_JOB, c=[1, 1])),
            "verify": ("verify.json", A2_JOB)}


@pytest.mark.parametrize("command", sorted(_REPORT_OF))
@pytest.mark.parametrize("case", ["out is a file", "out is under a file",
                                  "report is a directory"])
def test_unwritable_output_exits_2(tmp_path, capsys, command, case):
    report, job = _REPORT_OF[command]
    cfg = write_config(tmp_path, job)
    blocker = tmp_path / "x"
    blocker.touch()
    out = {"out is a file": blocker, "out is under a file": blocker / "sub",
           "report is a directory": tmp_path / "out"}[case]
    if case == "report is a directory":
        (out / report).mkdir(parents=True)
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and err.count("\n") == 1, err


# --- sgraph ------------------------------------------------------------------


def test_sgraph_explicit_c(tmp_path):
    cfg = write_config(tmp_path, dict(A2_JOB, c=[3, 2]))
    assert cli.main(["sgraph", "--config", cfg, "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "sgraph.json").read_text())
    assert payload["c"] == [3, 2]
    assert payload["points"] == [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1],
                                 [1, 2], [2, 1], [2, 2], [3, 2]]
    assert payload["extremal_points"] == [[0, 0], [0, 2], [1, 0], [3, 2]]
    assert payload["line_counts"] == {
        "1": [2, 3, 4, 2, 3, 4, 3, 4, 4],
        "2": [3, 3, 3, 3, 3, 3, 2, 2, 1],
        "3": [1, 1, 1, 1, 1, 1, 1, 1, 1],
    }
    assert len(payload["vertices"]) == 4
    dot = (tmp_path / "sgraph.dot").read_text()
    assert dot.startswith("graph") and dot.endswith("}\n")


def test_sgraph_byte_determinism(tmp_path):
    blobs = []
    for sub in ("one", "two"):
        out = tmp_path / sub
        cfg = write_config(tmp_path, dict(A2_JOB, c=[3, 2]), f"{sub}.json")
        assert cli.main(["sgraph", "--config", cfg, "--out", str(out)]) == 0
        blobs.append(((out / "sgraph.json").read_bytes(),
                      (out / "sgraph.dot").read_bytes()))
    assert blobs[0] == blobs[1]


def test_sgraph_class_selector(tmp_path):
    cfg = write_config(tmp_path,
                       dict(G2_JOB, **{"class": {"t": 2, "s": 1, "j": 5}}))
    assert cli.main(["sgraph", "--config", cfg, "--out", str(tmp_path)]) == 0
    stems = sorted(p.stem for p in tmp_path.glob("sgraph_class*.json"))
    assert stems == ["sgraph_class0", "sgraph_class1", "sgraph_class2"]
    metas = []
    for stem in stems:
        payload = json.loads((tmp_path / f"{stem}.json").read_text())
        metas.append((tuple(payload["c"]), tuple(payload["class"]["a"]),
                      payload["class"]["size"]))
        assert payload["class"]["t"] == 2
        assert payload["class"]["s"] == 1
        assert payload["class"]["j"] == 5
        assert (tmp_path / f"{stem}.dot").is_file()
    assert metas == [((0, 0, 0), (1, 1, 1), 1),
                     ((0, 1, 0), (1, 2, 0), 2),
                     ((1, 0, 0), (1, 0, 2), 2)]


def test_sgraph_box_at_the_limit_is_accepted(tmp_path):
    assert cli.SGRAPH_BOX_LIMIT == 8 ** 3
    cfg = write_config(tmp_path, dict(A2_JOB, c=[7, 7, 7]))
    assert cli.main(["sgraph", "--config", cfg, "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "sgraph.json").read_text())
    assert len(payload["points"]) == 120


def test_sgraph_extremal_points_come_from_the_s_graph(tmp_path,
                                                     monkeypatch):
    pts = sorted(integer_points(CoeffVector.make((7, 7, 7))))
    oracle = [pts[i] for i in lp_extremal_points(pts)]

    def no_lp(point, gens):
        raise AssertionError("sgraph ran an extremality LP")

    monkeypatch.setattr(linalg, "in_convex_hull", no_lp)
    for c, want in (([511], [(0,), (511,)]), ([7, 7, 7], oracle)):
        cfg = write_config(tmp_path, dict(A2_JOB, c=c))
        assert cli.main(["sgraph", "--config", cfg,
                         "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "sgraph.json").read_text())
        assert payload["extremal_points"] == [list(p) for p in want], c


def test_sgraph_class_selector_respects_the_box_limit(tmp_path, capsys,
                                                     monkeypatch):
    # the G2 classes at step 5 have c = (0,0,0), (0,1,0) and (1,0,0):
    # boxes of 1, 2 and 2 lattice points
    def no_work(cv):
        raise AssertionError("S-graph work run before the box check")

    monkeypatch.setattr(cli, "SGRAPH_BOX_LIMIT", 1)
    monkeypatch.setattr(cli, "binary_fusion", no_work)
    monkeypatch.setattr(cli, "integer_points", no_work)
    cfg = write_config(tmp_path,
                       dict(G2_JOB, **{"class": {"t": 2, "s": 1, "j": 5}}))
    assert cli.main(["sgraph", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "c spans more than 1 lattice points (the product of c_i + 1)" in err
    assert not list(tmp_path.glob("sgraph_class*"))


def test_sgraph_selector_position_must_carry_s(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(A2_JOB, word=[1],
                                      **{"class": {"t": 1, "s": 2, "j": 1}}))
    assert cli.main(["sgraph", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "position 1 carries letter 1, not s=2" in capsys.readouterr().err


def test_sgraph_needs_c_or_selector(tmp_path, capsys):
    cfg = write_config(tmp_path, A2_JOB)
    assert cli.main(["sgraph", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


# --- the module dimension limit ----------------------------------------------


class _Built(Exception):
    """Raised by a stub build: every dimension check passed."""


def _stop_at_build(cartan, t):
    raise _Built(t)


def test_every_fundamental_up_to_rank_6_is_within_the_module_limit(
        tmp_path, monkeypatch):
    # a Coxeter element holds every label, so enumerate checks every t
    # before its first build, which the stub stops
    monkeypatch.setattr(cli, "build_fundamental", _stop_at_build)
    dims = []
    for family, n in RANK_6_TYPES:
        c = validate_gcm(_standard_gcm(family, n))
        dims += [weyl_dimension(c, c.fundamental_weight(t)) for t in c.labels]
        cfg = write_config(tmp_path, {"cartan": _standard_gcm(family, n),
                                      "word": list(c.labels)})
        with pytest.raises(_Built):
            cli.main(["enumerate", "--config", cfg, "--out", str(tmp_path)])
    assert len(dims) == 86
    assert max(dims) == 2925 < cli.MODULE_DIM_LIMIT


@pytest.mark.parametrize("command,job,t,dim", [
    ("enumerate", dict(A2_JOB, t=2), 2, 3),
    ("verify", A2_JOB, 1, 3),
    ("sgraph", dict(G2_JOB, **{"class": {"t": 2, "s": 1, "j": 5}}), 2, 7)])
def test_a_module_above_the_limit_is_refused_before_any_build(
        tmp_path, capsys, monkeypatch, command, job, t, dim):
    monkeypatch.setattr(cli, "MODULE_DIM_LIMIT", 2)
    monkeypatch.setattr(cli, "build_fundamental", _stop_at_build)
    cfg = write_config(tmp_path, job)
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: the module of t={t} has dimension {dim}, above the "
        f"limit of 2\n")
    assert not list(out.iterdir())


def test_a_fresh_process_refuses_e8_omega_4_at_once(tmp_path):
    # dimension 6,899,079,264: the build would run for hours
    cfg = write_config(tmp_path, {"cartan": _standard_gcm("E", 8),
                                  "word": [4], "t": 4})
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = "import sys; from trailkit import cli; sys.exit(cli.main())"
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", code, "enumerate", "--config", cfg,
         "--out", str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=60)
    elapsed = time.perf_counter() - start
    assert done.returncode == 2, done.stderr
    assert done.stderr == ("config error: the module of t=4 has dimension "
                           "6899079264, above the limit of 10000\n")
    assert elapsed < 1.0


# --- verify ------------------------------------------------------------------


def test_verify_sl2_suite(tmp_path, capsys):
    cfg = write_config(tmp_path, A2_JOB)
    assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path),
                     "--suite", "sl2"]) == 0
    assert "verify: ok" in capsys.readouterr().out
    report = json.loads((tmp_path / "verify.json").read_text())
    assert report["suite"] == "sl2"
    assert report["sl2"] == {
        "closed_form_vs_recurrence": {"checked": 756, "failed": 0},
        "vanishing_sum": {"checked": 80, "failed": 0},
        "ok": True,
    }
    assert "sgraph" not in report and "envelope" not in report


def test_verify_trails_suite(tmp_path):
    cfg = write_config(tmp_path, G2_JOB)
    assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path),
                     "--suite", "trails"]) == 0
    report = json.loads((tmp_path / "verify.json").read_text())
    assert report["trails"] == {"face_identity": {"checked": 4, "failed": 0},
                                "ok": True}


def test_verify_all_g2(tmp_path):
    cfg = write_config(tmp_path, dict(G2_JOB, depth=2))
    assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "verify.json").read_text())
    assert set(report) == {"suite", "sl2", "sgraph", "trails", "envelope"}
    env = report["envelope"]
    assert env["ok"] is True
    assert [m["t"] for m in env["modules"]] == [1, 2]
    for m in env["modules"]:
        assert m["constructible"] and m["constructible_strong"]
        assert m["epsilon_star_s_independent"] is True
        for layer in m["layers"]:
            assert layer["checks"] == {"54": True, "56": True, "57": True}
    assert env["modules"][1]["functions"] == 6
    assert env["modules"][1]["extremality"]["extremal"] == 5


def test_verify_byte_determinism(tmp_path):
    blobs = []
    for sub in ("one", "two"):
        out = tmp_path / sub
        cfg = write_config(tmp_path, dict(G2_JOB, depth=2), f"{sub}.json")
        assert cli.main(["verify", "--config", cfg, "--out", str(out),
                         "--suite", "envelope"]) == 0
        blobs.append((out / "verify.json").read_bytes())
    assert blobs[0] == blobs[1]


def test_verify_builds_each_envelope_once(tmp_path, monkeypatch):
    calls = []
    build = cli.construct_envelope

    def counting(*args, **kwargs):
        calls.append(args[0].t)
        return build(*args, **kwargs)

    # giant's own name too, so a rebuild inside the library is counted
    monkeypatch.setattr(cli, "construct_envelope", counting)
    monkeypatch.setattr(giant, "construct_envelope", counting)
    cfg = write_config(tmp_path, A2_JOB)
    assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path),
                     "--suite", "envelope"]) == 0
    assert calls == [1, 2]


def test_verify_generates_the_crystal_once_per_config(tmp_path,
                                                      monkeypatch):
    calls = []
    generate = cli.generate_binf

    def counting(*args, **kwargs):
        calls.append(args[1])
        return generate(*args, **kwargs)

    written = []
    write = cli._write_json

    def keeping(path, obj):
        written.append(obj)
        return write(path, obj)

    monkeypatch.setattr(cli, "generate_binf", counting)
    monkeypatch.setattr(cli, "_write_json", keeping)
    a3 = {"cartan": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
          "word": [1, 2, 1, 3, 2, 1]}
    cfg = write_config(tmp_path, a3)
    assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path),
                     "--suite", "envelope"]) == 0
    assert calls == [4]
    report = json.loads((tmp_path / "verify.json").read_text())
    listings = [m["epsilon_star_elements"]
                for m in report["envelope"]["modules"]]
    assert len(listings) == 3 and listings[0] == listings[1] == listings[2]
    # one listing object, so the writer encodes it once
    (obj,) = written
    shared = [m["epsilon_star_elements"] for m in obj["envelope"]["modules"]]
    assert shared[0] is shared[1] is shared[2]
    # a false trail at the first label stops the run before any crystal
    calls.clear()
    cfg = write_config(tmp_path, G2_JOB)
    assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path),
                     "--suite", "envelope", "--inject-spurious"]) == 5
    assert calls == []


C3_JOB = {"cartan": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
          "word": [1, 2, 1, 3, 2, 1, 3, 2, 3]}


def test_verify_checks_epsilon_star_only_where_vertices_miss_a_function(
        tmp_path, monkeypatch):
    # a label whose whole-word vertex functions are all the settled ones
    # takes the overall maximum by definition and is not checked; a config
    # where every label is such a label makes no call at all
    calls = []
    epsilon_star = cli.epsilon_star

    def counting(env, labels, elements):
        calls.append((env.t, tuple(labels)))
        return epsilon_star(env, labels, elements)

    monkeypatch.setattr(cli, "epsilon_star", counting)
    for job, want in ((G2_JOB, [(2, (2,))]), (C3_JOB, [(3, (1, 2))]),
                      (A2_JOB, [])):
        calls.clear()
        cfg = write_config(tmp_path, job)
        assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path),
                         "--suite", "envelope"]) == 0
        assert calls == want, job


def test_verify_exits_4_when_a_vertex_set_misses_the_maximum(
        tmp_path, monkeypatch, capsys):
    # drop from the type-3 vertex set of C3 t = 3, which holds every settled
    # function, the one function largest at a crystal element: the label is
    # no longer skipped, and its check fails
    cartan = validate_gcm(C3_JOB["cartan"])
    word = tuple(C3_JOB["word"])
    env = construct_envelope(build_fundamental(cartan, 3), word)
    assert env.partial_labels((3,)) == []
    for b in generate_binf(WordJ(cartan, word), 4):
        values = {f: evaluate(f, dict(b)) for f in env.functions}
        top = max(values.values())
        argmax = [f for f, v in values.items() if v == top]
        if len(argmax) == 1:
            break
    dropped = argmax[0]
    whole = giant.Envelope._type_vertices.func

    def missing(self):
        per_s = whole(self)
        if self.t == 3:
            zs = per_s[3][0] - {dropped}
            per_s = dict(per_s)
            per_s[3] = (zs, tuple(self.form.index[f] for f in zs))
        return per_s

    monkeypatch.setattr(giant.Envelope, "_type_vertices", property(missing))
    cfg = write_config(tmp_path, dict(C3_JOB, t=3))
    assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path),
                     "--suite", "envelope"]) == 4
    err = capsys.readouterr().err
    assert "consistency failure: type-3 maximum" in err
    assert "misses the overall maximum" in err


def test_verify_inject_spurious(tmp_path, capsys):
    cfg = write_config(tmp_path, G2_JOB)
    rc = cli.main(["verify", "--config", cfg, "--out", str(tmp_path),
                   "--suite", "envelope", "--inject-spurious"])
    assert rc == 5
    err = capsys.readouterr().err
    assert "FALSE TRAIL" in err
    assert "false trail at step 1" in err
    report = json.loads((tmp_path / "verify.json").read_text())
    assert report["false_trail"] == {
        "t": 1,
        "step": 1,
        "class": "()",
        "function": [[1, 2]],
        "nearest": [[1, 1]],
        "detail": "driving layer is not the single driving function",
    }


def test_main_calls_in_one_process_share_no_flags(tmp_path):
    # the parser is built once and reused: no flag may leak into the next call
    cfg = write_config(tmp_path, A2_JOB)
    argv = ["verify", "--config", cfg, "--out", str(tmp_path),
            "--suite", "envelope"]
    assert cli.main(argv + ["--inject-spurious"]) == 5
    assert cli.main(argv) == 0
    assert cli.build_parser() is cli.build_parser()
    report = json.loads((tmp_path / "verify.json").read_text())
    assert "false_trail" not in report


def test_verify_inject_spurious_config_key(tmp_path):
    cfg = write_config(tmp_path, dict(G2_JOB, inject_spurious=True))
    assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path),
                     "--suite", "envelope"]) == 5


def test_verify_reports_failed_suite(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_suite_sl2",
                        lambda: {"ok": False, "reason": "forced"})
    cfg = write_config(tmp_path, A2_JOB)
    assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path),
                     "--suite", "sl2"]) == 4
    assert "FAILED (sl2)" in capsys.readouterr().err
    report = json.loads((tmp_path / "verify.json").read_text())
    assert report["sl2"]["reason"] == "forced"


# --- config validation -------------------------------------------------------


@pytest.mark.parametrize("mangle", [
    lambda d: {"word": d["word"]},                        # no cartan
    lambda d: {"cartan": d["cartan"]},                    # no word
    lambda d: dict(d, cartan=[[2, -1], [-1, 2, 0]]),      # not square
    lambda d: dict(d, word=[1, 5, 1]),                    # unknown letter
    lambda d: dict(d, word=[1, 1, 2]),                    # not reduced
    lambda d: dict(d, t=2, word=[1]),                     # t absent
    lambda d: dict(d, c=[1, -2]),                         # negative c
    lambda d: dict(d, **{"class": {"t": 1, "s": 2}}),     # selector missing j
    lambda d: dict(d, depth=-3),                          # bad depth
    lambda d: dict(d, convention="spiral"),               # bad convention
    lambda d: dict(d, c=["x"]),                           # non-integer c
    lambda d: dict(d, t=True),                            # boolean t
    lambda d: dict(d, depth=True),                        # boolean depth
    lambda d: dict(d, word=[True, 2, 1]),                 # boolean letter
    lambda d: dict(d, **{"class": {"t": 1, "s": 2, "j": 99}}),  # j > m
    lambda d: dict(d, **{"class": {"t": 5, "s": 2, "j": 1}}),   # t not a label
    lambda d: dict(d, **{"class": {"t": 1, "s": 2, "j": 0}}),   # j < 1
    lambda d: {"cartan": d["cartan"], "word": [1],        # t not in word
               "class": {"t": 2, "s": 1, "j": 1}},
    lambda d: dict(d, **{"class": {"t": 1, "s": True, "j": 1}}),  # bool s
    lambda d: dict(d, t=1.0),                             # float t
    lambda d: dict(d, word=5),                            # word not a list
    lambda d: {"cartan": [[2, False], [False, 2]],        # boolean entry
               "word": [1, 2]},
    lambda d: dict(d, inject_spurious="false"),           # string flag
    lambda d: dict(d, c=[40] * 6),                        # box 41**6
    lambda d: dict(d, c=[512]),                           # box just over
    lambda d: dict(d, depth=5),                           # depth over 4
    lambda d: dict(d, word=[1]),                          # label 2 absent
])
def test_config_errors(tmp_path, capsys, mangle, request):
    cfg = write_config(tmp_path, mangle(dict(A2_JOB)))
    assert cli.main(["enumerate", "--config", cfg,
                     "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_verify_envelope_needs_every_label(tmp_path, capsys):
    # the crystal of the envelope suite lowers by every label, so a word
    # without label 3 is a config error there even with t given; the
    # trails suite reads only the word
    cfg = write_config(tmp_path, {"cartan": [[2, -1, 0], [-1, 2, -1],
                                             [0, -1, 2]],
                                  "word": [1, 2], "t": 1})
    assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path),
                     "--suite", "envelope"]) == 2
    assert "label 3 does not occur" in capsys.readouterr().err
    assert not (tmp_path / "verify.json").exists()
    assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path),
                     "--suite", "trails"]) == 0


def test_cartan_validation_is_memoized_by_exact_matrix(tmp_path, capsys,
                                                       monkeypatch):
    calls = []
    validate = cli.validate_gcm

    def counting(matrix):
        calls.append(matrix)
        return validate(matrix)

    monkeypatch.setattr(cli, "validate_gcm", counting)
    # A1 x G2, which no other test uses, so the memo cannot hold it yet
    job = {"cartan": [[2, 0, 0], [0, 2, -1], [0, -3, 2]], "word": [1, 2, 3]}
    argv = ["verify", "--out", str(tmp_path), "--suite", "trails",
            "--config"]
    for name in ("one.json", "two.json"):
        assert cli.main(argv + [write_config(tmp_path, job, name)]) == 0
    assert len(calls) == 1
    # a float or a bool equals an int as a key, but is not validated as one
    for bad in (-3.0, True):
        calls.clear()
        cartan = [[2, 0, 0], [0, 2, -1], [0, bad, 2]]
        cfg = write_config(tmp_path, dict(job, cartan=cartan))
        assert cli.main(argv + [cfg]) == 2
        assert "is not an integer" in capsys.readouterr().err
        assert len(calls) == 1
    # a matrix outside finite type is validated, and then rejected each time
    affine = dict(job, cartan=[[2, -2], [-2, 2]], word=[1, 2])
    for name in ("three.json", "four.json"):
        assert cli.main(argv + [write_config(tmp_path, affine, name)]) == 3


def test_config_missing_file(tmp_path, capsys):
    assert cli.main(["enumerate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_config_invalid_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    assert cli.main(["enumerate", "--config", str(path),
                     "--out", str(tmp_path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_affine_matrix_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, {"cartan": [[2, -2], [-2, 2]],
                                  "word": [1, 2]})
    assert cli.main(["enumerate", "--config", cfg,
                     "--out", str(tmp_path)]) == 3
    assert "not finite type" in capsys.readouterr().err


def test_flags_override_config(tmp_path):
    # depth from the flag (1) beats depth from the config (2): at depth 1
    # only the empty element and the two first-occurrence bumps appear
    cfg = write_config(tmp_path, dict(A2_JOB, depth=2))
    assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path),
                     "--suite", "envelope", "--depth", "1"]) == 0
    report = json.loads((tmp_path / "verify.json").read_text())
    for m in report["envelope"]["modules"]:
        assert len(m["epsilon_star_elements"]) == 3


@pytest.mark.parametrize("command", ["enumerate", "sgraph"])
def test_depth_is_a_verify_flag_only(tmp_path, capsys, command):
    # only verify generates a crystal; the other commands refuse the flag
    cfg = write_config(tmp_path, dict(A2_JOB, c=[1]))
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--config", cfg, "--out", str(tmp_path),
                  "--depth", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --depth 1" in capsys.readouterr().err


def test_the_convention_key_takes_dual_only(tmp_path, capsys):
    # job files written when there were two conventions may say "dual",
    # which changes no byte of the report; any other value is exit 2
    pin, command, code, job = PINS[0]
    argv = command.split() + ["--config"]
    cfg = write_config(tmp_path, dict(job, convention="dual"), "dual.json")
    assert cli.main(argv + [cfg, "--out", str(tmp_path / "dual")]) == code
    assert matches_pin(pin, (tmp_path / "dual" / "verify.json").read_bytes())
    capsys.readouterr()
    cfg = write_config(tmp_path, dict(job, convention="straight"))
    out = tmp_path / "straight"
    assert cli.main(argv + [cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert "convention" in err and "dual" in err and "Traceback" not in err
    assert not (out / "verify.json").exists()


def test_the_convention_flag_is_gone(tmp_path, capsys):
    cfg = write_config(tmp_path, A2_JOB)
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--config", cfg, "--out", str(tmp_path),
                  "--convention", "dual"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --convention" in capsys.readouterr().err


# --- the report writer -------------------------------------------------------

_LEAVES = (st.none() | st.booleans() | st.integers()
           | st.integers(min_value=-2 ** 100, max_value=2 ** 100)
           | st.sampled_from([0, 1, True, False, -1]) | st.text())
# short int rows repeat often, as lists and as tuples, and some hold a bool
# that equals an int: the writer encodes each distinct int row once
_ROWS = st.lists(st.integers(-1, 1) | st.just(True), max_size=2)
_REPORTS = st.recursive(
    _LEAVES | _ROWS | _ROWS.map(tuple),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(), inner, max_size=4)
                   | st.dictionaries(st.integers(), inner, max_size=4)),
    max_leaves=40)


def _written(obj) -> bytes:
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "report.json")
        cli._write_json(path, obj)
        with open(path, "rb") as fh:
            return fh.read()


@settings(max_examples=300, deadline=None)
@given(_REPORTS)
def test_write_json_matches_the_stdlib_encoder(obj):
    want = json.dumps(obj, sort_keys=True, indent=1) + "\n"
    assert _written(obj) == want.encode("utf-8")


@st.composite
def _sharing_reports(draw):
    """A report that holds one list object at several places: twice at one
    depth, at other depths, and wherever the drawn body puts it."""
    shared = draw(st.lists(
        st.dictionaries(st.text(max_size=2), _REPORTS, max_size=3)
        | st.lists(_REPORTS, max_size=3), min_size=1, max_size=3))
    body = draw(st.recursive(
        _LEAVES | st.just(shared),
        lambda inner: (st.lists(inner, max_size=3)
                       | st.dictionaries(st.text(max_size=2), inner,
                                         max_size=3)),
        max_leaves=12))
    return {"a": shared, "b": [shared, body], "c": {"d": shared,
                                                    "e": [[shared]]}}


@settings(max_examples=200, deadline=None)
@given(_sharing_reports())
def test_write_json_with_shared_lists_matches_the_stdlib_encoder(obj):
    want = json.dumps(obj, sort_keys=True, indent=1) + "\n"
    assert _written(obj) == want.encode("utf-8")


def test_write_json_encodes_a_shared_listing_once(monkeypatch):
    encoded = []
    real = cli.encode_basestring_ascii

    def counting(text):
        encoded.append(text)
        return real(text)

    monkeypatch.setattr(cli, "encode_basestring_ascii", counting)
    listing = [{"coords": [[j, 1]], "total": 1} for j in range(1, 6)]
    inner = [{"x": listing}, {"y": 0}]      # a listing inside a listing
    obj = {"modules": [{"t": t, "elements": listing} for t in (1, 2, 3)],
           "nested": [{"a": inner}, {"b": [inner]}]}
    assert _written(obj) == (
        json.dumps(obj, sort_keys=True, indent=1) + "\n").encode("utf-8")
    # the module entries hold the listing at indentation depth 3; inner
    # sits at depths 3 and 4 and holds it at depths 5 and 6
    assert encoded.count("coords") == 5 * 3
    assert encoded.count("x") == 2


def test_write_json_fixed_cases():
    row = (1, 2)
    for obj in ({}, [], (), "", [[], {}], {"é\x00": "\x1f \U0001f600"},
                {10: 1, 2: [True, 1, False, 0], -3: None},
                [10 ** 40, -10 ** 40], {"z": {"y": {"x": [[1]]}}},
                # (True, 1) == (1, 1) as a key: the row's types come first
                [(1, 1), [1, 1], (True, 1), [[1, 1]], {"a": [(1, 1)]}],
                [[(True, 1)], [(1, 1)], [[1, True], [1, 1]], ((1, 1),)],
                # one row object at two indentations, beside equal rows of
                # other types: a row's text depends on its indentation, and
                # its types come first
                [row, [row], [1, 2], (True, 2), {"a": row, "b": [[1, 2], row]},
                 [[row, (True, 2)]]]):
        assert _written(obj) == (
            json.dumps(obj, sort_keys=True, indent=1) + "\n").encode("utf-8")


def test_write_json_chunks_a_long_report():
    obj = {"rows": [{"k": [i, -i], "s": str(i)} for i in range(20000)]}
    assert _written(obj) == (
        json.dumps(obj, sort_keys=True, indent=1) + "\n").encode("utf-8")
    obj["again"] = [obj["rows"], obj["rows"]]
    assert _written(obj) == (
        json.dumps(obj, sort_keys=True, indent=1) + "\n").encode("utf-8")


@pytest.mark.parametrize(
    "obj", [1.5, [Fraction(1, 2)], {"a": {"b": 0.0}}, {1: 0, "a": 0}],
    ids=["float", "fraction", "nested-float", "mixed-keys"])
def test_write_json_rejects_what_reports_never_hold(obj):
    with pytest.raises(TypeError):
        _written(obj)


# --- fuzzed configs ----------------------------------------------------------

_JUNK = (st.none() | st.booleans() | st.floats() | st.text(max_size=3)
         | st.lists(st.integers(-1, 2), max_size=2) | st.just({}))
# Cartan matrices of rank <= 2 with one reduced word each (its prefixes are
# reduced too), and two matrices outside finite type.
_INSTANCES = [([[2]], [1]), ([[2, 0], [0, 2]], [2, 1]),
              ([[2, -1], [-1, 2]], [1, 2, 1]), ([[2, -1], [-2, 2]], [2, 1, 2, 1]),
              ([[2, -2], [-1, 2]], [1, 2, 1, 2]),
              ([[2, -1], [-3, 2]], [1, 2, 1, 2, 1, 2]),
              ([[2, -2], [-2, 2]], [1, 2, 1]), ([[2, -1], [-4, 2]], [2, 1])]
_KEYS = ("cartan", "word", "t", "c", "class", "depth", "convention",
         "inject_spurious")


@st.composite
def _configs(draw):
    """A valid-looking config, with some keys dropped or replaced by values
    of another type; now and then a random matrix or no object at all."""
    matrix, word = draw(st.sampled_from(_INSTANCES))
    config = {"cartan": matrix,
              "word": word[:draw(st.integers(1, len(word)))]}
    config.update(draw(st.fixed_dictionaries({}, optional={
        "t": st.integers(1, 2),
        "c": st.lists(st.integers(0, 3), max_size=3),
        "class": st.fixed_dictionaries({"t": st.integers(1, 2),
                                        "s": st.integers(1, 2),
                                        "j": st.integers(1, 6)}),
        "depth": st.integers(0, 5),
        # "straight", the convention that is gone, is a config error (2)
        "convention": st.sampled_from(["dual", "straight"]),
        "inject_spurious": st.booleans(),
    })))
    if draw(st.booleans()):
        key = draw(st.sampled_from(_KEYS))
        if draw(st.booleans()):
            config.pop(key, None)
        else:
            config[key] = draw(_JUNK | st.integers(-1, 9)
                               | st.sampled_from(["spiral", [1, 9], [7, 7, 7]]))
    if draw(st.integers(0, 9)) == 0:
        n = draw(st.integers(1, 2))
        config["cartan"] = draw(st.lists(
            st.lists(st.integers(-4, 2), min_size=n, max_size=n),
            min_size=n, max_size=n))
    if draw(st.integers(0, 19)) == 0:
        return draw(_JUNK)
    return config


_COMMANDS = st.sampled_from(
    [["enumerate"], ["sgraph"]]
    + [["verify", "--suite", name] for name in cli.SUITES]
    + [["verify", "--suite", "envelope", "--inject-spurious"]])


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_configs(), _COMMANDS)
def test_fuzzed_configs_exit_cleanly(config, command):
    """Any config gets a documented exit code and no traceback."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "job.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), \
                contextlib.redirect_stderr(captured):
            code = cli.main([*command, "--config", path,
                             "--out", os.path.join(d, "out")])
    assert code in (0, 2, 3, 4, 5), captured.getvalue()
    assert "Traceback" not in captured.getvalue()
