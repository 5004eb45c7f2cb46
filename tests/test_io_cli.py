"""Instance files, trace serialization, and the command-line surface."""
import io
import json
import random

import pytest

from chvd.graphs import Graph
from chvd.generate import GeneratorSpec, generate
from chvd.instance_io import (
    InstanceFile,
    InstanceFormatError,
    emit,
    emit_solution,
    parse,
    parse_solution,
)
from chvd import cli
from chvd.cli import main, trace_text
from chvd.kernel import kernelize
from chvd.oracle import exact_chvd


def test_parse_minimal_empty_instance():
    inst = parse("p chvd 0 0 0\n")
    assert inst.n == 0 and inst.k == 0 and inst.edges == ()


def test_c4_round_trip():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    inst = InstanceFile.from_graph(g, 1, modulator=[0], comments=["c4"])
    text = emit(inst)
    assert parse(text) == inst
    assert emit(parse(text)) == text


def test_round_trip_fuzzed_instances():
    rng = random.Random(131)
    for trial in range(300):
        n = rng.randint(0, 12)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pairs)
        edges = pairs[: rng.randint(0, len(pairs))]
        modulator = rng.sample(range(n), rng.randint(0, n)) if n else []
        forced = []
        if len(modulator) >= 2:
            x, y = sorted(rng.sample(modulator, 2))
            if (x, y) in edges or rng.random() < 0.4:
                forced.append((x, y))
        inst = InstanceFile.from_graph(
            Graph(n, edges), rng.randint(0, 4),
            modulator=modulator, forced=forced,
            comments=[f"fuzz {trial}"],
        )
        text = emit(inst)
        assert parse(text) == inst
        assert emit(parse(text)) == text


@pytest.mark.parametrize("text,fragment", [
    ("e 0 1\n", "header"),
    ("p chvd 2 1 0\n", "promises 1 edges"),
    ("p chvd 2 1 0\ne 0 0\n", "self-loop"),
    ("p chvd 2 2 0\ne 0 1\ne 1 0\n", "duplicate edge"),
    ("p chvd 2 1 0\ne 0 5\n", "outside"),
    ("p chvd 2 0 0\nm 7\n", "outside range"),
    ("p chvd 2 0 0\nz 1\n", "unknown line tag"),
    ("p chvd 1 0 0\np chvd 1 0 0\n", "duplicate header"),
    ("p chvd 3 0 0\nf 0 2\nf 2 0\n", "line 3: duplicate forced pair (2,0)"),
    ("p chvd 3 0 0\nm 1\nm 1\n", "line 3: duplicate modulator vertex 1"),
    ("p chvd 4 4 -1\ne 0 1\ne 1 2\ne 2 3\ne 0 3\n", "negative budget"),
    ("p chvd 2 1 0\ne 0 1 1\n", "line 2: expected 2 integer fields, got 3"),
    ("p cnf 2 0 0\n", "line 1: header must read"),
    ("p chvd -1 0 0\n", "line 1: negative size in header"),
    ("m 0\np chvd 1 0 0\n", "line 1: modulator line before header"),
    ("f 0 1\np chvd 2 0 0\n", "line 1: forced pair before header"),
    ("p chvd 2 0 0\nf 1 1\n", "line 2: bad forced pair (1,1)"),
    ("c only\nc comments\n", "missing 'p chvd' header"),
])
def test_parse_rejects_malformed(text, fragment):
    with pytest.raises(InstanceFormatError) as err:
        parse(text)
    assert fragment in str(err.value)


def test_parse_skips_blank_lines():
    assert parse("\np chvd 2 1 0\n\ne 0 1\n  \n") == \
        parse("p chvd 2 1 0\ne 0 1\n")
    assert parse_solution("\ns chvd 1\n\nv 1\n  \n") == frozenset({1})


def test_from_graph_merges_duplicate_forced_pairs():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    inst = InstanceFile.from_graph(g, 1, modulator=[0, 2, 0],
                                   forced=[(0, 2), (2, 0), (0, 2)])
    assert (inst.modulator, inst.forced) == ((0, 2), ((0, 2),))
    text = emit(inst)
    assert text.count("f 0 2") == 1
    assert parse(text) == inst


def test_solution_round_trip():
    text = emit_solution({3, 1, 7}, comment="hello")
    assert parse_solution(text) == frozenset({1, 3, 7})
    with pytest.raises(InstanceFormatError):
        parse_solution("s chvd 2\nv 1\n")


def run_cli(tmp_path, *argv):
    return main(list(argv))


def test_cli_gen_solve_check_flow(tmp_path):
    inst_path = tmp_path / "instance.chvd"
    sol_path = tmp_path / "solution.txt"
    assert main(["gen", "--seed", "3", "--core", "9", "--planted", "2",
                 "-o", str(inst_path)]) == 0
    assert main(["solve", str(inst_path), "-o", str(sol_path)]) == 0
    assert main(["check", str(inst_path), "--solution", str(sol_path)]) == 0


@pytest.mark.parametrize("field", ["core_vertices", "planted", "noise_edges",
                                   "budget", "tree_nodes", "apex_degree_lo",
                                   "apex_degree_hi"])
def test_generator_spec_rejects_a_negative_count(field):
    with pytest.raises(ValueError, match=f"negative {field}: -1"):
        GeneratorSpec(seed=0, **{field: -1})


def test_generator_spec_rejects_an_empty_apex_degree_range():
    with pytest.raises(ValueError,
                       match="apex_degree_lo 5 exceeds apex_degree_hi 2"):
        GeneratorSpec(seed=0, apex_degree_lo=5, apex_degree_hi=2)
    g, _, _ = generate(GeneratorSpec(seed=0, apex_degree_lo=2,
                                     apex_degree_hi=2))
    assert all(g.degree(v) == 2 for v in range(12, g.n))


def test_cli_gen_rejects_negative_values_and_writes_no_file(tmp_path, capsys):
    inst_path = tmp_path / "negative.chvd"
    for flag in ("--k", "--core", "--planted", "--noise"):
        assert main(["gen", flag, "-1", "-o", str(inst_path)]) == 2
        assert "negative" in capsys.readouterr().err
        assert not inst_path.exists()


@pytest.mark.parametrize("flag", ["--core", "--planted", "--noise", "--k"])
def test_cli_gen_pool_refuses_a_shape_flag_and_writes_no_file(
        tmp_path, capsys, flag):
    """A pool instance has a fixed shape, so a flag that would change it
    is refused rather than dropped."""
    inst_path = tmp_path / "pool.chvd"
    assert main(["gen", "--pool", "--seed", "1", flag, "7",
                 "-o", str(inst_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and flag in err[0]
    assert not inst_path.exists()


def test_cli_gen_defaults_are_core_12_planted_2_noise_1(capsys):
    assert main(["gen", "--seed", "4"]) == 0
    default = capsys.readouterr().out
    assert main(["gen", "--seed", "4", "--core", "12", "--planted", "2",
                 "--noise", "1"]) == 0
    assert capsys.readouterr().out == default


@pytest.mark.parametrize("seed", range(5))
def test_cli_kernelizes_a_pool_instance_from_stdin(tmp_path, capsys,
                                                   monkeypatch, seed):
    """``chvd gen --pool | chvd kernelize -`` prints what reading the
    same text from a file prints."""
    assert main(["gen", "--pool", "--seed", str(seed)]) == 0
    text = capsys.readouterr().out
    path = tmp_path / "pool.chvd"
    path.write_text(text)
    assert main(["kernelize", str(path), "--format", "json"]) == 0
    from_file = capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["kernelize", "-", "--format", "json"]) == 0
    assert capsys.readouterr().out == from_file
    json.loads(from_file)


def test_cli_check_rejects_non_solution(tmp_path, capsys):
    inst_path = tmp_path / "c4.chvd"
    sol_path = tmp_path / "empty.txt"
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    inst_path.write_text(emit(InstanceFile.from_graph(g, 0)))
    sol_path.write_text(emit_solution([]))
    assert main(["check", str(inst_path), "--solution", str(sol_path)]) == 2


@pytest.mark.parametrize("solution,fragment", [
    ("s chvd 1\nv x\n", "line 2: non-integer field"),
    ("s chvd one\nv 1\n", "line 1: non-integer field"),
    ("c note\ns chvd 1\nv 1\ns chvd 1\n", "line 4: duplicate solution header"),
    ("s chvd 1\nv 1\ncorrupt 5\nchvd 3\n", "line 3: unknown tag 'corrupt'"),
    ("c\ns chvd 1\nv 1\nchvd 3\n", "line 4: unknown tag 'chvd'"),
    ("s cnf 1\nv 1\n", "line 1: bad solution header"),
    ("s chvd 1\nv 1 2\n", "line 2: bad vertex line"),
    ("s chvd 1\nv 1\nv 1\n", "line 3: duplicate solution vertex 1"),
    ("s chvd 1\nv 7\n", "invalid: solution uses unknown vertex ids"),
    ("s chvd 2\nv 0\nv 2\n", "invalid: solution size 2 exceeds budget 1"),
])
def test_cli_check_rejects_a_malformed_solution_with_its_line(
        tmp_path, capsys, solution, fragment):
    inst_path = tmp_path / "c4.chvd"
    sol_path = tmp_path / "solution.txt"
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    inst_path.write_text(emit(InstanceFile.from_graph(g, 1)))
    sol_path.write_text(solution)
    assert main(["check", str(inst_path), "--solution", str(sol_path)]) == 2
    assert fragment in capsys.readouterr().err


def test_cli_kernelize_writes_kernel_and_trace(tmp_path):
    inst_path = tmp_path / "instance.chvd"
    out_path = tmp_path / "kernel.chvd"
    trace_path = tmp_path / "trace.jsonl"
    assert main(["gen", "--seed", "5", "-o", str(inst_path)]) == 0
    code = main(["kernelize", str(inst_path), "-o", str(out_path),
                 "--trace", str(trace_path)])
    assert code in (0, 1)
    kernel = parse(out_path.read_text())
    assert kernel.n >= 0
    for line in trace_path.read_text().splitlines():
        record = json.loads(line)
        assert set(record) == {"rule", "witness", "deleted", "added_edges",
                               "forced_pair", "k_delta", "counters"}


def test_cli_kernelize_requires_modulator(tmp_path):
    inst_path = tmp_path / "bare.chvd"
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    inst_path.write_text(emit(InstanceFile.from_graph(g, 1)))
    assert main(["kernelize", str(inst_path)]) == 2
    out_path = tmp_path / "kernel.chvd"
    assert main(["kernelize", str(inst_path), "--auto-modulator",
                 "-o", str(out_path)]) in (0, 1)


def test_cli_kernelize_rejects_a_modulator_that_leaves_a_hole(tmp_path,
                                                              capsys):
    # two disjoint C4s: deleting vertex 0 leaves the second one whole
    inst_path = tmp_path / "two_c4.chvd"
    inst_path.write_text(emit(InstanceFile.from_graph(
        Graph(8, [(b + i, b + (i + 1) % 4) for b in (0, 4) for i in range(4)]),
        2, modulator=[0])))
    out_path = tmp_path / "kernel.chvd"
    assert main(["kernelize", str(inst_path), "-o", str(out_path)]) == 2
    assert "not chordal" in capsys.readouterr().err
    assert not out_path.exists()


def test_cli_no_instance_exit_code(tmp_path):
    inst_path = tmp_path / "no.chvd"
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    inst_path.write_text(emit(InstanceFile.from_graph(g, 0, modulator=[0])))
    out_path = tmp_path / "out.chvd"
    assert main(["kernelize", str(inst_path), "-o", str(out_path)]) == 1
    assert main(["approx", str(inst_path), "-o", str(out_path)]) == 1
    assert main(["solve", str(inst_path), "-o", str(out_path)]) == 1


def test_cli_exit_1_only_on_a_certified_no_instance(tmp_path, capsys):
    """The hub instance: 0 is adjacent to 1-4, the hub 5 to 2-4, and a
    path 1 - 6 - ... - 1205 - 5 closes long holes through 0 and 5.
    Deleting 5 leaves it chordal, so k = 1 is a yes-instance, and no
    failure on the way may exit 1 or escape as a traceback."""
    n = 1206
    edges = [(0, 1), (0, 2), (0, 3), (0, 4), (5, 2), (5, 3), (5, 4), (1, 6)]
    edges += [(i, i + 1) for i in range(6, n - 1)] + [(n - 1, 5)]
    inst_path = tmp_path / "hub.chvd"
    inst_path.write_text(emit(InstanceFile.from_graph(
        Graph(n, edges), 1, modulator=[0])))
    status = main(["kernelize", str(inst_path), "-o",
                   str(tmp_path / "out.chvd")])
    assert status != 1
    assert "Traceback" not in capsys.readouterr().err


def test_cli_maps_any_other_exception_to_exit_3(tmp_path, capsys,
                                                monkeypatch):
    inst_path = tmp_path / "c4.chvd"
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    inst_path.write_text(emit(InstanceFile.from_graph(g, 1)))

    def broken(*args, **kwargs):
        raise KeyError(7)

    monkeypatch.setattr(cli, "approximate", broken)
    assert main(["approx", str(inst_path)]) == 3
    assert capsys.readouterr().err == "error: KeyError: 7\n"


def test_cli_rejects_negative_budget(tmp_path, capsys):
    inst_path = tmp_path / "negative.chvd"
    inst_path.write_text("p chvd 4 4 -1\ne 0 1\ne 1 2\ne 2 3\ne 0 3\n")
    for command in ("solve", "approx", "kernelize"):
        assert main([command, str(inst_path)]) == 2
        assert "negative budget" in capsys.readouterr().err


def test_cli_solve_node_budget_exit_code(tmp_path, capsys, monkeypatch):
    inst_path = tmp_path / "c4s.chvd"
    g = Graph(12, [(4 * c + i, 4 * c + (i + 1) % 4)
                   for c in range(3) for i in range(4)])
    inst_path.write_text(emit(InstanceFile.from_graph(g, 3)))
    out_path = tmp_path / "sol.txt"
    assert main(["solve", str(inst_path), "-o", str(out_path)]) == 0
    assert len(parse_solution(out_path.read_text())) == 3
    out_path.unlink()
    monkeypatch.setattr(cli, "exact_chvd",
                        lambda *a: exact_chvd(*a, node_budget=2))
    assert main(["solve", str(inst_path), "-o", str(out_path)]) == 4
    assert "node budget" in capsys.readouterr().err
    assert not out_path.exists()


FORCED_P3 = "p chvd 3 2 0\ne 0 1\ne 1 2\nf 0 1\n"


def test_cli_approx_and_kernelize_reject_forced_pairs(tmp_path, capsys):
    inst_path = tmp_path / "forced.chvd"
    inst_path.write_text(FORCED_P3)
    out_path = tmp_path / "out.txt"
    for command in ("approx", "kernelize"):
        assert main([command, str(inst_path), "-o", str(out_path)]) == 2
        err = capsys.readouterr().err
        assert "forced pairs" in err and "chvd solve" in err
        assert not out_path.exists()


def test_cli_solve_and_check_honour_forced_pairs(tmp_path):
    inst_path = tmp_path / "forced.chvd"
    inst_path.write_text(FORCED_P3)
    sol_path = tmp_path / "sol.txt"
    # the pair needs one deletion and k = 0, so there is no solution
    assert main(["solve", str(inst_path), "-o", str(sol_path)]) == 1
    assert sol_path.read_text() == "c no solution within budget\n"
    sol_path.write_text(emit_solution([]))
    assert main(["check", str(inst_path), "--solution", str(sol_path)]) == 2
    inst_path.write_text(FORCED_P3.replace("p chvd 3 2 0", "p chvd 3 2 1"))
    assert main(["solve", str(inst_path), "-o", str(sol_path)]) == 0
    assert len(parse_solution(sol_path.read_text())) == 1
    assert main(["check", str(inst_path), "--solution", str(sol_path)]) == 0


def test_cli_approx_with_oracle(tmp_path):
    inst_path = tmp_path / "instance.chvd"
    sol_path = tmp_path / "sol.txt"
    assert main(["gen", "--seed", "7", "--core", "8", "-o",
                 str(inst_path)]) == 0
    assert main(["approx", str(inst_path), "--oracle", "-o",
                 str(sol_path)]) in (0, 1)
    if sol_path.read_text().startswith("c approx"):
        assert "ratio" in sol_path.read_text()


def test_cli_approx_cutting_plane_cap_exit_code(tmp_path, capsys):
    inst_path = tmp_path / "inst.chvd"
    out_path = tmp_path / "out.txt"
    # k = 4 at n = 44 keeps approximate() on the LP route, which needs
    # more than one cutting-plane round
    assert main(["gen", "--seed", "3", "--core", "40", "--planted", "4",
                 "--k", "4", "-o", str(inst_path)]) == 0
    capsys.readouterr()
    assert main(["approx", str(inst_path), "--max-iters", "1",
                 "-o", str(out_path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error:") and "max_iters=1" in err
    assert not out_path.exists()


@pytest.mark.parametrize("flag, value", [("--max-iters", "0")])
def test_cli_approx_rejects_out_of_range_lp_options(tmp_path, capsys, flag,
                                                    value):
    inst_path = tmp_path / "inst.chvd"
    # k = 4 at n = 15 keeps approximate() on the LP route
    assert main(["gen", "--seed", "3", "--core", "12", "--planted", "3",
                 "--k", "4", "-o", str(inst_path)]) == 0
    capsys.readouterr()
    assert main(["approx", str(inst_path), f"{flag}={value}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "internal invariant" not in err


@pytest.mark.parametrize("flag, value", [("--max-iters", "0")])
def test_cli_approx_rejects_out_of_range_lp_options_on_the_exact_route(
        tmp_path, capsys, flag, value):
    inst_path = tmp_path / "inst.chvd"
    # k = 1 sends approximate() to the exact search, which runs no LP
    assert main(["gen", "--seed", "3", "--core", "8", "--planted", "1",
                 "--k", "1", "-o", str(inst_path)]) == 0
    capsys.readouterr()
    assert main(["approx", str(inst_path), f"{flag}={value}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "internal invariant" not in err


def test_cli_approx_refuses_the_removed_tolerance_flag(tmp_path, capsys):
    inst_path = tmp_path / "inst.chvd"
    out_path = tmp_path / "tol.txt"
    assert main(["gen", "--seed", "7", "-o", str(inst_path)]) == 0
    with pytest.raises(SystemExit) as exit_info:
        main(["approx", str(inst_path), "--tolerance", "1e-6",
              "-o", str(out_path)])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --tolerance" in capsys.readouterr().err
    assert not out_path.exists()


def test_cli_malformed_input_exit_code(tmp_path):
    bad = tmp_path / "bad.chvd"
    bad.write_text("p chvd 2 9 0\n")
    assert main(["solve", str(bad)]) == 2


def test_cli_byte_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    for target in (a, b):
        main(["gen", "--seed", "11", "-o", str(target / "inst.chvd")])
        main(["kernelize", str(target / "inst.chvd"),
              "-o", str(target / "kernel.chvd"),
              "--trace", str(target / "trace.jsonl")])
        main(["solve", str(target / "inst.chvd"),
              "-o", str(target / "sol.txt")])
    for name in ("inst.chvd", "kernel.chvd", "trace.jsonl", "sol.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_trace_text_replay_matches():
    g, k, planted = generate(GeneratorSpec(seed=2, core_vertices=10,
                                           planted=2, noise_edges=1))
    first = kernelize(g, k, sorted(planted))
    second = kernelize(g, k, sorted(planted))
    assert trace_text(first) == trace_text(second)


def test_replay_trace_reproduces_kernel_bit_exactly():
    from chvd.generate import kernel_instance_pool
    from chvd.kernel import replay_trace

    for seed in range(25):
        g, k, modulator = kernel_instance_pool(seed)
        result = kernelize(g, k, modulator)
        replayed_graph, replayed_k = replay_trace(g, k, result.trace)
        assert replayed_graph == result.graph
        assert replayed_k == result.k


def test_cli_json_formats(tmp_path):
    inst_path = tmp_path / "instance.chvd"
    assert main(["gen", "--seed", "9", "--core", "9", "-o",
                 str(inst_path)]) == 0
    out = tmp_path / "out.json"
    assert main(["kernelize", str(inst_path), "--format", "json", "-o",
                 str(out)]) in (0, 1)
    record = json.loads(out.read_text())
    assert {"verdict", "n", "k", "edges", "events"} <= set(record)
    assert main(["solve", str(inst_path), "--format", "json", "-o",
                 str(out)]) in (0, 1)
    record = json.loads(out.read_text())
    assert "status" in record
    assert main(["approx", str(inst_path), "--format", "json",
                 "--max-iters", "500",
                 "-o", str(out)]) in (0, 1)
    assert "status" in json.loads(out.read_text())

    # a C4 with budget 0: approx certifies a no-instance and solve finds
    # no solution, each with exit 1 and a one-line status record
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    inst_path.write_text(emit(InstanceFile.from_graph(g, 0)))
    assert main(["approx", str(inst_path), "--format", "json",
                 "-o", str(out)]) == 1
    assert out.read_text() == '{"status":"no-instance"}\n'
    assert main(["solve", str(inst_path), "--format", "json",
                 "-o", str(out)]) == 1
    assert out.read_text() == '{"status":"no-solution"}\n'


C4_K1 = "p chvd 4 4 1\ne 0 1\ne 0 3\ne 1 2\ne 2 3\n"
C4_K0 = C4_K1.replace("p chvd 4 4 1", "p chvd 4 4 0")
P4_K1 = "p chvd 4 3 1\ne 0 1\ne 1 2\ne 2 3\n"
FORCED_REFUSAL = ("cannot honour forced pairs ('f' lines); "
                  "use 'chvd solve' for instances with forced pairs\n")

# (instance text, argv after the subcommand's input, solution text or None,
#  replace replay_trace by a broken one, exit code, stdout, stderr);
# {out} and {trace} name files that a refusal must not write
EXIT_PATHS = {
    "kernelize-forced": (
        FORCED_P3, ["kernelize", "-o", "{out}", "--trace", "{trace}"], None,
        False, 2, "", "error: kernelize " + FORCED_REFUSAL),
    "approx-forced": (
        FORCED_P3, ["approx", "-o", "{out}"], None,
        False, 2, "", "error: approx " + FORCED_REFUSAL),
    "kernelize-no-modulator": (
        C4_K1, ["kernelize", "-o", "{out}", "--trace", "{trace}"], None,
        False, 2, "", "error: instance has no modulator lines; "
        "pass --auto-modulator to compute one greedily\n"),
    "kernelize-replay-mismatch": (
        C4_K1 + "m 0\n", ["kernelize", "-o", "{out}", "--trace", "{trace}"],
        None, True, 3, "",
        "internal invariant breached: trace replay mismatch\n"),
    "approx-no-instance-text": (
        C4_K0, ["approx"], None, False, 1, "c no-instance\n", ""),
    "approx-no-instance-json": (
        C4_K0, ["approx", "--format", "json"], None,
        False, 1, '{"status":"no-instance"}\n', ""),
    "solve-no-solution-text": (
        C4_K0, ["solve"], None, False, 1, "c no solution within budget\n", ""),
    "solve-no-solution-json": (
        C4_K0, ["solve", "--format", "json"], None,
        False, 1, '{"status":"no-solution"}\n', ""),
    "solve-text": (
        C4_K1, ["solve"], None, False, 0, "c optimum 1\ns chvd 1\nv 0\n", ""),
    "solve-json": (
        C4_K1, ["solve", "--format", "json"], None,
        False, 0, '{"status":"ok","optimum":1,"vertices":[0]}\n', ""),
    "approx-oracle-c4-text": (
        C4_K1, ["approx", "--oracle"], None, False, 0,
        "c approx size 1; optimum 1; ratio 1.000\ns chvd 1\nv 0\n", ""),
    "approx-oracle-c4-json": (
        C4_K1, ["approx", "--oracle", "--format", "json"], None, False, 0,
        '{"status":"ok","size":1,"vertices":[0],"optimum":1}\n', ""),
    "approx-oracle-p4-text": (
        P4_K1, ["approx", "--oracle"], None, False, 0,
        "c approx size 0; optimum 0; ratio 1.000\ns chvd 0\n", ""),
    "approx-oracle-p4-json": (
        P4_K1, ["approx", "--oracle", "--format", "json"], None, False, 0,
        '{"status":"ok","size":0,"vertices":[],"optimum":0}\n', ""),
    "check-unknown-ids": (
        C4_K1, ["check"], "s chvd 1\nv 7\n", False, 2, "",
        "invalid: solution uses unknown vertex ids\n"),
    "check-over-budget": (
        C4_K1, ["check"], "s chvd 2\nv 0\nv 2\n", False, 2, "",
        "invalid: solution size 2 exceeds budget 1\n"),
    "check-forced-pair-not-hit": (
        C4_K1 + "f 0 2\n", ["check"], "s chvd 1\nv 1\n", False, 2, "",
        "invalid: forced pair (0,2) not hit\n"),
    "check-residual-not-chordal": (
        C4_K1, ["check"], "s chvd 0\n", False, 2, "",
        "invalid: residual graph is not chordal\n"),
    "check-valid": (
        C4_K1, ["check"], "s chvd 1\nv 0\n", False, 0, "valid\n", ""),
    "kernelize-auto-modulator-text": (
        C4_K1, ["kernelize", "--auto-modulator"], None, False, 0,
        "c kernel verdict reduced\n" + C4_K1, ""),
    "kernelize-auto-modulator-json": (
        C4_K1, ["kernelize", "--auto-modulator", "--format", "json"], None,
        False, 0, '{"verdict":"reduced","n":4,"k":1,'
        '"edges":[[0,1],[0,3],[1,2],[2,3]],"events":2}\n', ""),
}


@pytest.mark.parametrize("path", EXIT_PATHS)
def test_cli_exit_paths_print_exactly_their_report(tmp_path, capsys,
                                                   monkeypatch, path):
    """Each exit path of the subcommands: its code and its exact stdout
    and stderr; a refusal (exit 2, 3 or 4) writes no output file."""
    text, argv, solution, broken_replay, code, stdout, stderr = \
        EXIT_PATHS[path]
    inst_path = tmp_path / "instance.chvd"
    inst_path.write_text(text)
    files = {"out": tmp_path / "out.txt", "trace": tmp_path / "trace.jsonl"}
    argv = [argv[0], str(inst_path)] + [a.format(**files) for a in argv[1:]]
    if solution is not None:
        sol_path = tmp_path / "solution.txt"
        sol_path.write_text(solution)
        argv += ["--solution", str(sol_path)]
    if broken_replay:
        monkeypatch.setattr(cli, "replay_trace", lambda *a: (Graph(0), 0))
    assert main(argv) == code
    assert capsys.readouterr() == (stdout, stderr)
    if code >= 2:
        assert not any(f.exists() for f in files.values())
