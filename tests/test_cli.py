import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from coxkit import cli, reduction
from coxkit.blueprint import BlueprintGroup, GroupCache
from coxkit.cli import main
from coxkit.constructions import Builder
from coxkit.coxeter import standard_coxeter
from coxkit.roots import Root
from coxkit.treeprod import TreeError
from report_diff import without_elapsed

REPORT_DIFF = pathlib.Path(__file__).with_name("report_diff.py")
TREE_FILE = """\
# the subgroup theorem tree product
vertex v0 U sr
vertex v1 V :st
vertex v2 U trt
edge v0 v1
edge v1 v2
"""


def run_cli(args):
    return main(args)


def report_diff(a, b) -> subprocess.CompletedProcess:
    """tests/report_diff.py run on the documents at the paths a and b."""
    return subprocess.run([sys.executable, str(REPORT_DIFF), str(a), str(b)],
                          stdout=subprocess.PIPE, text=True, timeout=60)


def test_reduce_command(capsys):
    assert run_cli(["reduce", "--word", "u_sr,1,u_sr,u_t"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "u_t"


def test_trace_command(capsys):
    assert run_cli(["trace", "--word", "u_rt,u_t"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] and doc["data"]["final_counter"] > 0


def test_trace_constraint_violation(capsys):
    assert run_cli(["trace", "--word", "u_s,u_sr"]) == 1


@pytest.mark.parametrize("command", ["trace", "reduce"])
@pytest.mark.parametrize("word, message", [
    ("u_sr,u_xx", "unknown V token 'u_xx'"),
    ("u_sr,1,u_t", "two V letters in a row at 'u_t'")])
def test_a_word_that_does_not_parse_is_a_usage_error(capsys, command, word, message):
    assert run_cli([command, "--word", word]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_verify_section4_lists_the_trace_automaton(capsys):
    assert run_cli(["verify", "section4"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "  certificate trace_automaton: pass (3 checks, 0 assumptions)"


def test_radius_cap(capsys):
    for radius in ("99", "-1"):
        assert run_cli(["verify", "coxeter", "--radius", radius]) == 2
        assert capsys.readouterr().err == f"error: --radius {radius} is outside 0..10\n"


def test_blueprint_cap(capsys):
    for length in ("99", "-1"):
        assert run_cli(["verify", "blueprint", "--max-length", length]) == 2
        assert capsys.readouterr().err == \
            f"error: --max-length {length} is outside 0..8\n"


def test_bad_residue_spec(capsys):
    assert run_cli(["verify", "section4", "--residue", "zz"]) == 2


@pytest.mark.parametrize("residue, error", [
    # well formed, but outside T_{i,1}: the rank-2 constructions refuse it
    ("rsr:st", "error: Residue('st' at 'rsr') violates "
               "l(w_R s r) = l(w_R)+2 = l(w_R t r)"),
    ("sr:st", "error: Residue('st' at 'sr') with s=s violates "
              "l(w_R srs) = l(w_R)+3"),
    # a chamber of the gate-1 residue st@1 that is not its gate
    ("s:st", "error: 's' is not the gate of Residue('st' at ''); "
             "its gate is ''"),
])
def test_residue_outside_the_class_is_a_usage_error(capsys, residue, error):
    assert run_cli(["verify", "section4", "--residue", residue]) == 2
    assert capsys.readouterr().err.splitlines() == [error]


def test_gate_one_certificates_follow_the_residue_gate(capsys):
    """ss normalizes to the gate 1 of st@1: the run is the one of :st,
    with the three gate-1 certificates among its 13."""
    runs = []
    for residue in (":st", "ss:st"):
        assert run_cli(["verify", "section4", "--residue", residue]) == 0
        runs.append(capsys.readouterr().out.splitlines())
    assert runs[0] == runs[1]
    names = [line.split(":")[0].split()[-1] for line in runs[0][1:-1]]
    assert len(names) == 13
    assert {"KRs_cap_Gminus1[st,s=s]", "OtoG-1[st]",
            "MainApplication[st@1]"} <= set(names)


def test_each_residue_runs_once(capsys):
    """ss:st names the residue of :st again: its battery runs once, and
    the listing is the one of :st alone."""
    assert run_cli(["verify", "section4", "--residue", ":st"]) == 0
    alone = capsys.readouterr().out.splitlines()
    assert run_cli(["verify", "section4", "--residue", ":st",
                    "--residue", "ss:st"]) == 0
    both = capsys.readouterr().out.splitlines()
    assert both == alone
    names = [line.split(":")[0].split()[-1] for line in both[1:-1]]
    assert len(names) == len(set(names)) == 13


@pytest.mark.parametrize("target, option, value, suite", [
    ("quadrangle", "--residue", ":st", "section4"),
    ("quadrangle", "--radius", "3", "coxeter"),
    ("quadrangle", "--max-length", "2", "blueprint"),
    ("coxeter", "--residue", ":st", "section4"),
    ("blueprint", "--radius", "3", "coxeter"),
    ("section4", "--max-length", "2", "blueprint"),
])
def test_verify_refuses_an_option_its_suite_does_not_read(
        capsys, target, option, value, suite):
    assert run_cli(["verify", target, option, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {option} applies to verify {suite} only"]


def test_verify_refuses_with_one_line_for_several_options(capsys):
    assert run_cli(["verify", "quadrangle", "--residue", ":st",
                    "--radius", "3", "--max-length", "2"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "coxkit.cli", "frobnicate"],
        capture_output=True)
    assert proc.returncode == 2


MUL_CENSUS = pathlib.Path(__file__).with_name("mul_census.py")


def test_mul_census_stops_quietly_when_its_reader_closes_the_pipe():
    # as under `| head`: the reader is gone before the census prints
    proc = subprocess.Popen(
        [sys.executable, str(MUL_CENSUS), "verify", "blueprint",
         "--max-length", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert err == b""


RESIDUE_SWEEP = pathlib.Path(__file__).with_name("residue_sweep.py")
# the rank-2 residues of gate length <= 3 that section 4 passes; the other
# twelve are refused by a precondition of the constructions
SWEEP_PASSES = ("st@1 rs@1 rt@1 st@r rt@s rs@t rs@st st@tr rt@ts rs@rst "
                "rt@rts st@str").split()
SWEEP_DIGEST = "4cd721496fb1425895d38c56156e7bf2c203306e92cf9a237878d4af8085c52a"


def test_residue_sweep_to_gate_length_3():
    src = str(pathlib.Path(__file__).parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(RESIDUE_SWEEP), "--gate-length", "3"],
        env=dict(os.environ, PYTHONPATH=path), stdout=subprocess.PIPE,
        text=True, timeout=120)
    assert proc.returncode == 0
    *rows, summary, digest = proc.stdout.splitlines()
    outcomes = dict(row.split(maxsplit=1) for row in rows)
    assert len(outcomes) == len(rows) == 24
    assert [label for label, got in outcomes.items() if got == "pass"] \
        == SWEEP_PASSES
    assert all(got.startswith("refused: ") for label, got in outcomes.items()
               if label not in SWEEP_PASSES)
    assert summary.startswith("24 residues: 12 pass, 0 FAIL, 12 refused; ")
    assert digest == f"sha256 {SWEEP_DIGEST}"


def test_nf_command(tmp_path, capsys):
    tree = tmp_path / "tree.txt"
    tree.write_text(TREE_FILE)
    assert run_cli(["nf", "--tree", str(tree),
                    "--word", "u_sr,u_s,u_sr"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["identity"] is False and doc["syllables"] == 1
    assert run_cli(["nf", "--tree", str(tree),
                    "--word", "u_sr,u_sr"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["identity"] is True
    assert run_cli(["nf", "--tree", str(tree), "--word", "u_xy"]) == 2


def test_nf_syllables_count_no_inserted_letter(tmp_path, capsys):
    # u_s*u_sr at v0 and u_t*u_tr*u_rt at v2 lie in no one vertex group:
    # two letters, although the normal form passes u(t) through v1
    tree = tmp_path / "tree.txt"
    tree.write_text(TREE_FILE)
    assert run_cli(["nf", "--tree", str(tree),
                    "--word", "u_s*u_sr,u_t*u_tr*u_rt"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["identity"] is False and doc["syllables"] == 2


def test_nf_accepts_one_group_at_two_vertices(tmp_path, capsys):
    tree = tmp_path / "tree.txt"
    tree.write_text("vertex v0 U sr\nvertex v1 V :st\nvertex v2 U sr\n"
                    "edge v0 v1\nedge v1 v2\n")
    assert run_cli(["nf", "--tree", str(tree), "--word", "u_sr,u_s,u_sr"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["identity"] is False and doc["letters"] == [["v0", "u(s)"]]


BAD_TREES = {
    "unknown-generator": "vertex v0 U sq\n",
    "unknown-v-type": "vertex v1 V :sx\n",
    "no-common-roots": "vertex v0 U st\nvertex v1 V t:rs\nedge v0 v1\n",
    "empty": "# comments only\n\n",
    "duplicate-vertex": "vertex v0 U sr\nvertex v0 U trt\n",
    "unknown-edge-vertex": "vertex v0 U sr\nedge v0 v1\n",
}


@pytest.mark.parametrize("name", sorted(BAD_TREES))
def test_nf_bad_tree_file(tmp_path, capsys, name):
    tree = tmp_path / "tree.txt"
    tree.write_text(BAD_TREES[name])
    assert run_cli(["nf", "--tree", str(tree), "--word", "u_s"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def _swap_newest_row(monkeypatch, w):
    """Build U_w with entries 1 <-> 2 and h+1 <-> h+2 (h half its order)
    swapped in its newest generator row."""
    build = BlueprintGroup.__init__

    def swapped(self, *args):
        build(self, *args)
        if self.w == w:
            row, h = self.rows[-1], self.order >> 1
            for a, b in ((1, 2), (h + 1, h + 2)):
                row[a], row[b] = row[b], row[a]
    monkeypatch.setattr(BlueprintGroup, "__init__", swapped)


# U[rstrsr] is read at rs@rst and at st@rstr, U[strsrs] is the first
# group of length 6 the default residues build
@pytest.mark.parametrize("w, residue", [
    ("rstrsr", ["--residue", "rst:rs"]), ("strsrs", []),
    ("rstrsr", ["--residue", "rstr:st"])])
def test_a_corrupted_group_exits_1_without_a_traceback(monkeypatch, capsys,
                                                       w, residue):
    # the cache certifies every group it builds, so the swapped row fails
    # U_w's certificate whatever the residue reads of it: a violation, not
    # a usage error and not an internal failure
    _swap_newest_row(monkeypatch, w)
    assert run_cli(["verify", "section4", *residue]) == 1
    assert capsys.readouterr().err == (
        f"error: relation [u_0, u_5] = () fails in U_{w}\n")


def _mutate_root_mask(monkeypatch, w, root, mask):
    """Send U_w's root generator at root to mask, leaving every other
    root generator of every group as it is."""
    real = BlueprintGroup.root_mask

    def mutant(self, r):
        return mask if (self.w, r) == (w, root) else real(self, r)
    monkeypatch.setattr(BlueprintGroup, "root_mask", mutant)


def _assert_the_edge_is_refused(capsys, tmp_path, message):
    """Builder.tree refuses the subgroup theorem's tree with message, and
    `nf` on the same tree exits 1 with it."""
    vertices = [("v0", ("U", "sr")), ("v1", ("V", "", "st")),
                ("v2", ("U", "trt"))]
    with pytest.raises(TreeError) as refused:
        Builder(GroupCache(standard_coxeter())).tree(
            vertices, [("v0", "v1"), ("v1", "v2")])
    assert str(refused.value) == message
    tree = tmp_path / "tree.txt"
    tree.write_text(TREE_FILE)
    assert run_cli(["nf", "--tree", str(tree), "--word", "u_sr"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_an_edge_map_that_is_no_homomorphism_exits_1(monkeypatch, capsys,
                                                    tmp_path):
    # U_stst's generator at alpha_s becomes u_s * u_t (mask 9), of order
    # 4; V = <u_s u_t, u_t> is the same group of order 8, but the
    # root-label map of the edge U_sr -> V sends the involution u_s to
    # it, so the closure of its graph outgrows the edge group of order 2
    # and Builder.edge refuses it, naming both vertices
    _mutate_root_mask(monkeypatch, "stst", Root("s", True), 9)
    _assert_the_edge_is_refused(
        capsys, tmp_path, "the root-label map from U[sr] into V[|st] is "
        "not an injective homomorphism")


def test_an_edge_map_that_is_not_injective_exits_1(monkeypatch, capsys,
                                                  tmp_path):
    # U_trt's generator at alpha_t becomes the identity, so the
    # root-label map of the edge V -> U_trt is the trivial homomorphism on
    # an edge group of order 2: its graph closes at |E| elements with one
    # second coordinate, and Builder.edge refuses it
    _mutate_root_mask(monkeypatch, "trt", Root("t", True), 0)
    _assert_the_edge_is_refused(
        capsys, tmp_path, "the root-label map from V[|st] into U[trt] is "
        "not an injective homomorphism")


def test_a_reduction_defect_exits_1_without_a_traceback(monkeypatch, capsys):
    def broken(self, word):
        raise reduction.ReductionError("reduction changed the element")
    monkeypatch.setattr(reduction.TheoremSetup, "reduce", broken)
    assert run_cli(["reduce", "--word", "u_sr,1,u_sr,u_t"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: reduction changed the element\n"


def test_a_trace_defect_exits_1_without_a_traceback(monkeypatch, capsys):
    def broken(setup, word):
        raise reduction.TraceError(
            "distance counter failed to increase at step 2")
    monkeypatch.setattr(cli, "trace_word", broken)
    assert run_cli(["trace", "--word", "u_rt,u_t"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: distance counter failed to increase at step 2\n")


def test_report_requires_out(capsys):
    assert run_cli(["report"]) == 2


# sha256 of the report without its elapsed fields, keys sorted
REPORT_DIGEST = "71ec2961f8febf1ebf93d26e87db02b646a8eae8f450ff0f1997c9d99180c600"


def test_report_digest_pinned(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run_cli(["report", "--out", str(out)]) == 0
    capsys.readouterr()
    text = json.dumps(without_elapsed(json.loads(out.read_text())),
                      sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_DIGEST


def test_report_does_not_depend_on_the_hash_seed(tmp_path):
    # one report per process, under two string-hash seeds: no set or dict
    # iteration order may reach the document
    src = str(pathlib.Path(__file__).parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    outs = [tmp_path / f"report{seed}.json" for seed in ("0", "1")]
    for seed, out in zip(("0", "1"), outs):
        subprocess.run([sys.executable, "-m", "coxkit.cli", "report",
                        "--out", str(out)], check=True, timeout=120,
                       stdout=subprocess.DEVNULL,
                       env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path))
    got = report_diff(*outs)
    assert (got.returncode, got.stdout) == (0, "")


def _certificate(name, data):
    return {"name": name, "pass": True, "assumptions": [], "data": {},
            "elapsed": 0.5,
            "checks": [{"description": "one", "status": True},
                       {"description": "two", "status": True, "data": data}]}


def test_report_diff_names_changed_checks_and_records(tmp_path):
    # B drops certificate C, changes the data of A's check 1 and every
    # elapsed: one line for each of the first two, none for the third
    def doc(a_data, names, elapsed):
        return {"pass": True, "tool": "coxkit", "suites": {"section4": {
            "suite": "section4", "pass": True, "elapsed": elapsed,
            "certificates": [_certificate(n, a_data if n == "A" else {})
                             for n in names]}}}
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    paths[0].write_text(json.dumps(doc({"order": 8}, "ABC", 1.0)))
    paths[1].write_text(json.dumps(doc({"order": 16}, "AB", 2.0)))
    got = report_diff(*paths)
    assert got.returncode == 1
    assert got.stdout.splitlines() == [
        "suite section4",
        "  - certificate C",
        '  ~ certificate A check 1 data: {"order": 8} -> {"order": 16}']
    same = report_diff(paths[0], paths[0])
    assert (same.returncode, same.stdout) == (0, "")


def test_verify_quadrangle_and_report_determinism(tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert run_cli(["verify", "quadrangle", "--out", str(out1)]) == 0
    assert run_cli(["verify", "quadrangle", "--out", str(out2)]) == 0
    capsys.readouterr()
    d1 = without_elapsed(json.loads(out1.read_text()))
    d2 = without_elapsed(json.loads(out2.read_text()))
    assert d1 == d2

