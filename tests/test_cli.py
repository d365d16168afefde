import contextlib
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

import systolic
from systolic.cli import (
    CHECKS,
    GENERATORS,
    ISOMETRY,
    THEOREMS,
    CliError,
    build_generated,
    main,
    parse_gen_spec,
    resolve_auto,
)
from systolic.report import strip_timing

SRC = os.path.dirname(os.path.dirname(os.path.abspath(systolic.__file__)))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# a check of the input file, which the test writes in place of FILE
CHECK_FILE = ["check", "--input", "FILE", "--checks", "tc"]


class TestExitCodes:
    def test_passing_check_exits_zero(self, capsys):
        code, out, err = run(
            capsys, "check", "--gen", "octahedron", "--checks", "flag,tc"
        )
        assert code == 0 and err == ""
        assert "yes" in out

    def test_required_no_exits_one(self, capsys):
        code, out, _ = run(
            capsys,
            "check",
            "--gen",
            "octahedron",
            "--checks",
            "weakly-systolic",
            "--require",
            "weakly-systolic",
        )
        assert code == 1
        assert "no" in out

    def test_unrequired_no_exits_zero(self, capsys):
        code, out, _ = run(
            capsys, "check", "--gen", "octahedron", "--checks", "weakly-systolic"
        )
        assert code == 0

    def test_unknown_generator_exits_two(self, capsys):
        code, _, err = run(capsys, "check", "--gen", "dodecahedron", "--checks", "tc")
        assert code == 2
        assert "unknown generator" in err

    @pytest.mark.parametrize(
        "spec, key",
        [("lattice:radus=3,margin=2", "radus"), ("octahedron:n=9", "n"), ("cycle:n=5,m=2", "m"),
         # an unknown key wins over a bad or missing declared one
         ("cycle:n=x,m=2", "m"), ("cycle:m=2", "m")],
    )
    def test_unknown_generator_parameter_exits_two(self, capsys, spec, key):
        code, out, err = run(capsys, "check", "--gen", spec, "--checks", "systole")
        assert code == 2 and out == ""
        assert err == f"error: generator {spec.partition(':')[0]!r} takes no parameter {key!r}\n"

    @pytest.mark.parametrize(
        "argv, text, message",
        [
            (["check", "--gen", ":", "--checks", "tc"], None, "empty generator name in ':'"),
            (["check", "--gen", "cycle:n", "--checks", "tc"], None,
             "bad generator parameter 'n' in 'cycle:n'"),
            (["check", "--gen", "cycle:n=5,n=6", "--checks", "tc"], None,
             "duplicate generator parameter 'n'"),
            (["check", "--gen", "octahedron", "--checks", ","], None, "empty check list"),
            (["theorems", "--input", "FILE", "--auto", "file", "--do", "all"],
             "complex tri\nmode flag\nvertices 3\nedge 0 1\nedge 1 2\nedge 0 2\n",
             "the input file declares no map lines"),
            (CHECK_FILE, "complex a b\nmode flag\nvertices 2\n",
             "line 1: complex takes exactly one name"),
            (CHECK_FILE, "complex a\nmode flag\nvertices 2 3\n",
             "line 3: vertices takes exactly one count"),
            (CHECK_FILE, "complex a\nmode flag\nvertices 2\nedge 0\n",
             "line 4: edge takes exactly two vertex ids"),
            (CHECK_FILE, "complex a\nmode facets\nvertices 2\nfacet\n",
             "line 4: facet needs at least one vertex id"),
            (CHECK_FILE, "complex a\nmode flag\nvertices 2\nmap 0\n",
             "line 4: map takes exactly two vertex ids"),
            (CHECK_FILE, "complex a\nmode facets\nvertices 2\n",
             "line 0: facets mode needs at least one facet line"),
        ],
    )
    def test_refused_spec_or_file_exits_two(self, capsys, tmp_path, argv, text, message):
        # main() prints the reason and returns: nothing reaches a traceback
        f = tmp_path / "input.txt"
        if text is not None:
            f.write_text(text)
        code, out, err = run(capsys, *(str(f) if a == "FILE" else a for a in argv))
        assert code == 2 and out == ""
        assert err == f"error: {message}\n" and "Traceback" not in err

    def test_unknown_token_exits_two(self, capsys):
        code, _, err = run(capsys, "check", "--gen", "octahedron", "--checks", "zz")
        assert code == 2
        assert "zz" in err

    def test_missing_input_exits_two(self, capsys):
        code, _, err = run(capsys, "check", "--checks", "tc")
        assert code == 2
        assert "--gen" in err

    def test_both_inputs_exits_two(self, capsys, tmp_path):
        f = tmp_path / "x.txt"
        f.write_text("complex a\nmode flag\nvertices 1\n")
        code, _, err = run(
            capsys, "check", "--gen", "octahedron", "--input", str(f), "--checks", "tc"
        )
        assert code == 2

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run(capsys, "check", "--input", "/no/such/file", "--checks", "tc")
        assert code == 2

    def test_parse_error_exits_two(self, capsys, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("complex a\nmode flag\nvertices 2\nedge 0 9\n")
        code, _, err = run(capsys, "check", "--input", str(f), "--checks", "tc")
        assert code == 2
        assert "line" in err


    def test_non_utf8_input_exits_two(self, capsys, tmp_path):
        f = tmp_path / "binary.txt"
        f.write_bytes(b"\xff\xfe\x00bad")
        code, out, err = run(capsys, "check", "--input", str(f), "--checks", "tc")
        assert code == 2 and out == ""
        assert err == "error: line 1: not UTF-8 text (byte 0xff)\n"
        f.write_bytes(b"complex a\nmode flag\nvertices 2\nedge 0 1 # caf\xe9\n")
        code, out, err = run(capsys, "check", "--input", str(f), "--checks", "tc")
        assert code == 2 and out == ""
        assert err == "error: line 4: not UTF-8 text (byte 0xe9)\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["check", "--gen", "octahedron", "--checks", "tc", "--require", "sd"],
                "error: --require names checks not being run: ['sd']\n",
            ),
            (
                ["theorems", "--gen", "thick_line:k=2,n=10", "--auto", "shift",
                 "--do", "embedding", "--require", "dichotomy"],
                "error: --require names theorem checks not being run: ['dichotomy']\n",
            ),
        ],
    )
    def test_require_outside_the_run_exits_two(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == message

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--gen", "octahedron", "--checks", "tc", "--oracle-budget", "-5"],
            ["check", "--gen", "octahedron", "--checks", "k-large", "--k", "-3"],
            ["check", "--gen", "octahedron", "--checks", "full-cycles", "--max-len", "-1"],
            ["theorems", "--gen", "octahedron", "--auto", "antipodal", "--do", "embedding",
             "--oracle-budget", "-2"],
            ["check", "--gen", "cone_over_cycle:n=7", "--checks", "systolic",
             "--oracle-budget", "-7"],
        ],
    )
    def test_negative_count_exits_two(self, capsys, argv):
        option, value = argv[-2:]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: {option} must be non-negative, got {value}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("isometry --gen cycle:n=5 --auto identity --do idempotence",
             "id fixes a vertex: its translation length is zero"),
            ("isometry --gen cycle:n=5 --auto identity --do chain",
             "id fixes a vertex: its translation length is zero"),
            ("theorems --gen cycle:n=5 --auto rotate --power 5 --do invariant-geodesic",
             "rotate^5 fixes a vertex: its translation length is zero"),
            ("isometry --gen lattice:radius=2,margin=2 --auto t1 --do chain",
             "no trusted displacement value for t1"),
            ("isometry --gen lattice:radius=2,margin=2 --auto t1 --do min-set",
             "no trusted displacement value for t1"),
        ],
    )
    def test_translation_length_refusals_exit_two(self, capsys, argv, message):
        code, out, err = run(capsys, *argv.split())
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_zero_counts_are_valid(self, capsys):
        code, out, err = run(
            capsys, "check", "--gen", "cone_over_cycle:n=7", "--checks", "k-large,full-cycles,systolic",
            "--k", "0", "--max-len", "0", "--oracle-budget", "0", "--format", "json",
        )
        assert code == 0 and err == ""
        report = json.loads(out)
        assert (report["config"]["k"], report["config"]["max_len"]) == (0, 0)
        by = {r["check"]: r for r in report["records"]}
        assert by["k-large"]["verdict"] == "yes"
        assert by["full-cycles"]["detail"]["count"] == 0
        # budget 0 skips the collapse pass: homology alone leaves the cone undecided
        assert by["systolic"]["verdict"] == "unknown"
        assert "budget 0 skips the collapse pass" in by["systolic"]["reason"]

    def test_jobs_is_not_an_option(self, capsys):
        # lattice windows take radius and margin from the spec, generate
        # writes the text format with no header, so it has no report options,
        # and no isometry operation asks the simple-connectivity oracle
        for argv in (
            ["check", "--gen", "octahedron", "--checks", "tc", "--jobs", "2"],
            ["check", "--gen", "lattice", "--checks", "tc", "--radius", "6"],
            ["theorems", "--gen", "lattice", "--auto", "t1", "--do", "embedding", "--margin", "2"],
            ["generate", "--gen", "octahedron", "--format", "json"],
            ["generate", "--gen", "octahedron", "--oracle-budget", "7"],
            ["isometry", "--gen", "octahedron", "--auto", "antipodal", "--do", "validate",
             "--oracle-budget", "1"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert argv[-2] in capsys.readouterr().err


class TestDisconnectedInput:
    @pytest.mark.parametrize("token", ["sd", "tc", "qc", "weakly-modular"])
    @pytest.mark.parametrize("spec", ["random:n=10,p=0.1,seed=1", "random:n=12,p=0.15,seed=1"])
    def test_distance_checks_exit_two(self, capsys, spec, token):
        code, out, err = run(capsys, "check", "--gen", spec, "--checks", token)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "connected" in err

    def test_no_traceback_from_the_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "systolic.cli", "check", "--gen",
             "random:n=10,p=0.1,seed=1", "--checks", "sd"],
            env=dict(os.environ, PYTHONPATH=SRC),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


class TestSphereDominationFirst:
    """check computes SD before the other tokens when the run computes it
    anyway, so TC and QC read its verdict; records, errors and exit codes
    keep the given order."""

    @pytest.fixture
    def sd_calls(self, monkeypatch):
        """"sd" for each computation of SD and "tc" for each TC call, in
        order; each SD computation sleeps 50 ms."""
        calls = []
        original = systolic.conditions.sphere_domination_everywhere

        def counted(x):
            if original.known(x) is None:
                calls.append("sd")
                time.sleep(0.05)
            return original(x)

        counted.known = original.known
        monkeypatch.setattr(systolic.conditions, "sphere_domination_everywhere", counted)
        tc = systolic.conditions.triangle_condition
        monkeypatch.setattr(
            systolic.conditions, "triangle_condition", lambda x: calls.append("tc") or tc(x)
        )
        return calls

    @pytest.mark.parametrize(
        "checks, mode, first",
        [("tc,sd", "graph", 1), ("tc,weakly-systolic", "composite", 1),
         ("tc,weakly-systolic,sd", "sd", 1), ("tc,sd,weakly-systolic", "composite", 1),
         ("tc,qc,sd", "graph", 2)],
    )
    def test_sd_runs_first_and_counts_to_its_token(self, capsys, sd_calls, checks, mode, first):
        code, out, err = run(
            capsys, "check", "--gen", "octahedron", "--checks", checks, "--mode", mode,
            "--format", "json",
        )
        records = json.loads(out)["records"]
        assert code == 0 and [r["check"] for r in records] == checks.split(",")
        assert sd_calls[:2] == ["sd", "tc"] and sd_calls.count("sd") == 1
        walls = [r["wall_ms"] for r in records]
        assert walls[first] >= 50 and all(w < 50 for i, w in enumerate(walls) if i != first)

    @pytest.mark.parametrize(
        "checks", ["tc", "qc", "weakly-modular", "tc,qc,weakly-modular", "weakly-systolic"]
    )
    @pytest.mark.parametrize("spec", ["octahedron", "lattice:radius=6,margin=3"])
    def test_tc_and_qc_alone_never_compute_sd(self, capsys, monkeypatch, checks, spec):
        original = systolic.conditions.sphere_domination_everywhere

        def refuse(x):
            raise AssertionError("sphere domination was computed")

        refuse.known = original.known
        monkeypatch.setattr(systolic.conditions, "sphere_domination_everywhere", refuse)
        code, out, err = run(capsys, "check", "--gen", spec, "--checks", checks)
        assert code == 0 and err == ""

    @pytest.mark.parametrize(
        "checks, mode, what",
        [
            ("tc,sd", "graph", "the triangle condition"),
            ("sd,tc", "graph", "sphere domination"),
            ("qc,sd", "graph", "the quadrangle condition"),
            ("weakly-modular,sd", "graph", "the triangle condition"),
            ("weakly-systolic,sd", "composite", "weak systolicity"),
            ("sd,weakly-systolic", "composite", "sphere domination"),
            ("tc,weakly-systolic", "sd", "the triangle condition"),
        ],
    )
    @pytest.mark.parametrize("source", ["disconnected", "empty"])
    def test_first_token_reports_its_own_error(self, capsys, tmp_path, checks, mode, what, source):
        if source == "empty":
            f = tmp_path / "empty.txt"
            f.write_text("complex empty\nmode flag\nvertices 0\n")
            argv, message = ["--input", str(f)], "empty complex"
        else:
            argv, message = ["--gen", "random:n=10,p=0.1,seed=1"], f"{what} is about connected complexes"
        code, out, err = run(capsys, "check", *argv, "--checks", checks, "--mode", mode)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"


class TestRefusedBeforeBuild:
    """A bad spec, token list or --require exits 2 before any target is
    built, so a typo next to a huge size costs nothing."""

    @pytest.fixture(autouse=True)
    def no_window(self, monkeypatch):
        def refuse(radius, margin):
            raise AssertionError("the window was built")

        monkeypatch.setattr(systolic.generators, "triangular_lattice_window", refuse)

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("check --gen lattice:radius=1000,margin=4,radus=3 --checks tc",
             "generator 'lattice' takes no parameter 'radus'"),
            ("check --gen lattice:radius=1000,margin=4 --checks tcc",
             f"unknown check 'tcc'; expected one of {', '.join(CHECKS)}"),
            ("isometry --gen lattice:radius=1000,margin=4 --auto t1 --do min-sett",
             f"unknown isometry operation 'min-sett'; expected one of {', '.join(ISOMETRY)}"),
            ("theorems --gen lattice:radius=1000,margin=4 --auto t1 --do embeding",
             f"unknown theorem check 'embeding'; expected one of {', '.join(THEOREMS)}"),
            ("check --gen lattice:radius=1000,margin=4 --checks tc --require qc",
             "--require names checks not being run: ['qc']"),
            ("theorems --gen lattice:radius=1000,margin=4 --auto t1 --do embedding "
             "--require dichotomy", "--require names theorem checks not being run: ['dichotomy']"),
        ],
    )
    def test_exits_two_unbuilt(self, capsys, argv, message):
        code, out, err = run(capsys, *argv.split())
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_a_good_command_line_builds(self):
        with pytest.raises(AssertionError, match="the window was built"):
            main(["check", "--gen", "lattice:radius=1000,margin=4", "--checks", "tc"])


def test_out_of_memory_exits_two(capsys, monkeypatch):
    # a build that runs out of memory is refused like any other input,
    # not shown as a traceback; exit 1 stays for a required No
    def exhausted(n):
        raise MemoryError

    monkeypatch.setattr(systolic.generators, "cycle", exhausted)
    code, out, err = run(capsys, "check", "--gen", "cycle:n=100000000", "--checks", "flag")
    assert code == 2 and out == ""
    assert err.startswith("error: out of memory") and "Traceback" not in err


class TestEmptyInput:
    """The empty complex is not connected: every check that presupposes
    connectivity refuses it, and the others keep answering."""

    @pytest.fixture(params=["file", "random"])
    def source(self, request, tmp_path):
        if request.param == "random":
            return ["--gen", "random:n=0,p=0.5,seed=1"]
        f = tmp_path / "empty.txt"
        f.write_text("complex empty\nmode flag\nvertices 0\n")
        return ["--input", str(f)]

    @pytest.mark.parametrize(
        "checks",
        ["tc", "qc", "weakly-modular", "sd", "systolic",
         "weakly-systolic --mode graph", "weakly-systolic --mode sd",
         "weakly-systolic --mode composite"],
    )
    def test_connected_only_checks_exit_two(self, capsys, source, checks):
        code, out, err = run(capsys, "check", *source, "--checks", *checks.split())
        assert code == 2 and out == ""
        assert err == "error: empty complex\n"

    def test_other_checks_answer(self, capsys, source):
        tokens = ["systole", "flag", "full-cycles", "k-large", "locally-k-large", "w5hat"]
        code, out, err = run(
            capsys, "check", *source, "--checks", ",".join(tokens), "--format", "json"
        )
        assert code == 0 and err == ""
        records = json.loads(out)["records"]
        assert [(r["check"], r["verdict"]) for r in records] == [(t, "yes") for t in tokens]

    def test_negative_random_vertex_count_exits_two(self, capsys):
        code, out, err = run(
            capsys, "check", "--gen", "random:n=-3,p=0.5,seed=1", "--checks", "systole"
        )
        assert code == 2 and out == ""
        assert err == "error: vertex count cannot be negative\n"


# a circle given by its facets: the 1-skeleton is a triangle, so the flag
# completion would be a filled, contractible triangle
HOLLOW = "complex hollow\nmode facets\nvertices 3\nfacet 0 1\nfacet 1 2\nfacet 0 2\n"
# 0 -> 4 and i -> i - 1 on the path 0-1-2-3-4: the edge 0-1 goes to the non-edge 4-0
PATH_SHIFT = (
    "complex path5\nmode flag\nvertices 5\n"
    + "".join(f"edge {i} {i + 1}\n" for i in range(4))
    + "map 0 4\n"
    + "".join(f"map {i} {i - 1}\n" for i in range(1, 5))
)


class TestRefusedInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--checks", "systole,systolic,flag"],
            ["check", "--checks", "all"],
            ["check", "--checks", "full-cycles"],
            ["generate"],
        ],
    )
    def test_non_flag_facets_exit_two(self, capsys, tmp_path, argv):
        f = tmp_path / "hollow.txt"
        f.write_text(HOLLOW)
        code, out, err = run(capsys, argv[0], "--input", str(f), *argv[1:])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "clique 0 1 2 spans no simplex" in err

    def test_flag_check_alone_reports_the_clique(self, capsys, tmp_path):
        f = tmp_path / "hollow.txt"
        f.write_text(HOLLOW)
        code, out, err = run(
            capsys, "check", "--input", str(f), "--checks", "flag", "--format", "json"
        )
        assert code == 0 and err == ""
        (record,) = json.loads(out)["records"]
        assert record["verdict"] == "no" and record["witness"] == [0, 1, 2]

    @pytest.mark.parametrize("checks", ["all", "systole,flag"])
    def test_flag_input_is_checked_once(self, capsys, tmp_path, monkeypatch, checks):
        # the refusal of non-flag input and the flag token share one verdict
        f = tmp_path / "filled.txt"
        f.write_text("complex filled\nmode facets\nvertices 3\nfacet 0 1 2\n")
        calls = []

        def counted(fc):
            calls.append(fc)
            return systolic.is_flag(fc)

        monkeypatch.setattr(systolic.cli, "is_flag", counted)
        code, _, err = run(capsys, "check", "--input", str(f), "--checks", checks)
        assert code == 0 and err == ""
        assert len(calls) == 1

    def test_flag_facets_input_runs(self, capsys, tmp_path):
        f = tmp_path / "filled.txt"
        f.write_text("complex filled\nmode facets\nvertices 3\nfacet 0 1 2\n")
        code, _, err = run(capsys, "check", "--input", str(f), "--checks", "systole,systolic")
        assert code == 0 and err == ""

    @pytest.mark.parametrize(
        "command, tokens",
        [("isometry", "validate"), ("isometry", "classify"), ("theorems", "all")],
    )
    def test_file_map_that_is_no_automorphism_exits_two(self, capsys, tmp_path, command, tokens):
        f = tmp_path / "path5.txt"
        f.write_text(PATH_SHIFT)
        code, out, err = run(capsys, command, "--input", str(f), "--auto", "file", "--do", tokens)
        assert code == 2 and out == ""
        assert err == "error: the file map is not an automorphism: edge broken at vertices 0, 1\n"


class TestCheckCommand:
    def test_all_tokens_on_small_complex(self, capsys):
        code, out, _ = run(
            capsys, "check", "--gen", "wheel:k=6", "--checks", "all", "--max-len", "8"
        )
        assert code == 0
        for token in ("flag", "systole", "tc", "qc", "weakly-systolic", "systolic"):
            assert token in out

    def test_json_format_parses(self, capsys):
        code, out, _ = run(
            capsys,
            "check",
            "--gen",
            "icosahedron",
            "--checks",
            "k-large,w5hat",
            "--k",
            "6",
            "--format",
            "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["target"] == "icosahedron"
        checks = {r["check"]: r for r in doc["records"]}
        assert checks["k-large"]["verdict"] == "no"
        assert checks["w5hat"]["verdict"] == "no"

    def test_window_trust_annotation(self, capsys):
        code, out, _ = run(
            capsys,
            "check",
            "--gen",
            "lattice:radius=5,margin=2",
            "--checks",
            "tc,locally-k-large",
        )
        assert code == 0
        assert "trusted-region" in out

    def test_systole_reports_value(self, capsys):
        code, out, _ = run(
            capsys,
            "check",
            "--gen",
            "cycle:n=7",
            "--checks",
            "systole",
            "--format",
            "json",
        )
        doc = json.loads(out)
        (rec,) = doc["records"]
        assert rec["detail"]["value"] == 7

    def test_composite_mode(self, capsys):
        code, out, _ = run(
            capsys,
            "check",
            "--gen",
            "hex_torus:p=4,q=4",
            "--checks",
            "weakly-systolic",
            "--mode",
            "composite",
            "--format",
            "json",
        )
        doc = json.loads(out)
        (rec,) = doc["records"]
        assert rec["verdict"] == "no"
        assert rec["detail"]["graph"]["answer"] == "no"


class TestIsometryCommand:
    def test_displacement_and_classify(self, capsys):
        code, out, _ = run(
            capsys,
            "isometry",
            "--gen",
            "octahedron",
            "--auto",
            "antipodal",
            "--do",
            "displacement,classify,min-set",
            "--format",
            "json",
        )
        assert code == 0
        doc = json.loads(out)
        by = {r["check"]: r for r in doc["records"]}
        assert by["classify[antipodal]"]["detail"]["kind"] == "hyperbolic"
        assert by["displacement[antipodal]"]["detail"]["translation_length"] == 2

    def test_power_flag(self, capsys):
        code, out, _ = run(
            capsys,
            "isometry",
            "--gen",
            "cycle:n=6",
            "--auto",
            "rotate",
            "--power",
            "6",
            "--do",
            "classify",
            "--format",
            "json",
        )
        doc = json.loads(out)
        (rec,) = doc["records"]
        assert rec["detail"]["kind"] == "elliptic"

    def test_chain_on_lattice(self, capsys):
        code, out, _ = run(
            capsys,
            "isometry",
            "--gen",
            "lattice:radius=6,margin=2",
            "--auto",
            "t1",
            "--do",
            "chain,idempotence",
        )
        assert code == 0
        assert "chain[t1]" in out and "yes" in out

    def test_long_detail_names_its_size(self, capsys):
        argv = ["isometry", "--gen", "lattice:radius=10,margin=4", "--auto", "t1", "--do", "min-set"]
        code, text, _ = run(capsys, *argv)
        assert code == 0
        code, out, _ = run(capsys, *argv, "--format", "json")
        (rec,) = json.loads(out)["records"]
        size = len(json.dumps(rec["detail"], sort_keys=True))
        assert size == 611
        assert "    detail: (611 bytes, use --format json)" in text.splitlines()

    def test_unknown_auto_exits_two(self, capsys):
        code, _, err = run(
            capsys,
            "isometry",
            "--gen",
            "octahedron",
            "--auto",
            "glide",
            "--do",
            "classify",
        )
        assert code == 2
        assert "glide" in err

    def test_file_map(self, capsys, tmp_path):
        f = tmp_path / "tri.txt"
        f.write_text(
            "complex tri\nmode flag\nvertices 3\nedge 0 1\nedge 1 2\nedge 0 2\n"
            "map 0 1\nmap 1 2\nmap 2 0\n"
        )
        code, out, _ = run(
            capsys,
            "isometry",
            "--input",
            str(f),
            "--auto",
            "file",
            "--do",
            "validate,invariant-simplex",
            "--format",
            "json",
        )
        assert code == 0
        doc = json.loads(out)
        by = {r["check"]: r for r in doc["records"]}
        assert by["invariant-simplex[tri_map]"]["witness"] == [0, 1, 2]


class TestTheoremsCommand:
    def test_dichotomy_on_thick_line(self, capsys):
        code, out, _ = run(
            capsys,
            "theorems",
            "--gen",
            "thick_line:k=2,n=10",
            "--auto",
            "shift",
            "--do",
            "embedding,min-systolic,dichotomy",
            "--format",
            "json",
        )
        assert code == 0
        doc = json.loads(out)
        by = {r["check"]: r for r in doc["records"]}
        assert by["embedding[shift]"]["detail"]["max_deviation"] == 0
        assert by["dichotomy[shift]"]["detail"]["thickness"] == 2

    def test_invariant_geodesic_power(self, capsys):
        code, out, _ = run(
            capsys,
            "theorems",
            "--gen",
            "lattice:radius=8,margin=3",
            "--auto",
            "glide",
            "--power",
            "2",
            "--do",
            "invariant-geodesic",
            "--format",
            "json",
        )
        doc = json.loads(out)
        (rec,) = doc["records"]
        assert rec["verdict"] == "yes"

    def test_require_gate(self, capsys):
        # Min of the torus translation is the whole torus, which is not systolic
        code, out, _ = run(
            capsys,
            "theorems",
            "--gen",
            "hex_torus:p=4,q=4",
            "--auto",
            "translate",
            "--do",
            "min-systolic",
            "--require",
            "min-systolic",
        )
        assert code == 1

    def test_identity_rejected_for_min_theorems(self, capsys):
        code, _, err = run(
            capsys,
            "theorems",
            "--gen",
            "wheel:k=4",
            "--auto",
            "identity",
            "--do",
            "min-systolic",
        )
        assert code == 2
        assert "translation length" in err


# one small spec per generator
SMALL_SPECS = {
    "lattice": "lattice:radius=4,margin=1",
    "thick_line": "thick_line:k=2,n=6",
    "hex_torus": "hex_torus:p=4,q=5",
    "octahedron": "octahedron",
    "icosahedron": "icosahedron",
    "wheel": "wheel:k=5",
    "extended_wheel5": "extended_wheel5",
    "cycle": "cycle:n=5",
    "complete": "complete:n=4",
    "cone_over_cycle": "cone_over_cycle:n=5",
    "random": "random:n=8,p=0.4,seed=1",
}


def _maps(gen):
    """The map table of the small spec of ``gen``; making it builds nothing."""
    declared, _, maps = GENERATORS[gen]
    return maps(**{**declared, **parse_gen_spec(SMALL_SPECS[gen])[1]})


class TestGeneratorTable:
    def test_every_generator_has_a_small_spec(self):
        assert set(SMALL_SPECS) == set(GENERATORS)

    @pytest.mark.parametrize("gen", sorted(SMALL_SPECS))
    def test_listed_maps_and_identity_are_automorphisms(self, gen):
        names = [*_maps(gen), "identity"] + (["t1", "t-2"] if gen == "lattice" else [])
        for auto in names:
            target, _, make = build_generated(SMALL_SPECS[gen], auto)
            assert systolic.validate_automorphism(target, make(target)).is_yes, (gen, auto)

    @pytest.mark.parametrize("gen", sorted(SMALL_SPECS))
    def test_required_parameters_are_needed_and_optional_ones_default(self, gen):
        declared, _, _ = GENERATORS[gen]
        _, params = parse_gen_spec(SMALL_SPECS[gen])

        def spec(**kv):
            return gen + (":" + ",".join(f"{k}={v}" for k, v in kv.items()) if kv else "")

        for key, default in declared.items():
            rest = {k: v for k, v in params.items() if k != key}
            if isinstance(default, type):
                with pytest.raises(CliError) as exc:
                    build_generated(spec(**rest))
                assert str(exc.value) == f"generator needs parameter {key}=..."
            else:
                target, name, _ = build_generated(spec(**rest))
                spelled, spelled_name, _ = build_generated(spec(**rest, **{key: default}))
                assert name == spelled_name
                assert list(target.edges()) == list(spelled.edges())

    def test_maps_of_other_generators_are_refused(self):
        every = {auto for gen in SMALL_SPECS for auto in _maps(gen)} | {"t1", "file"}
        for gen in SMALL_SPECS:
            own = set(_maps(gen)) | ({"t1"} if gen == "lattice" else set())
            for auto in sorted(every - own):
                with pytest.raises(CliError, match="no automorphism named"):
                    resolve_auto(_maps(gen), auto)

    def test_an_unknown_name_never_reaches_the_build(self, capsys, monkeypatch):
        def build(**params):
            raise AssertionError("built")

        for gen, (declared, _, maps) in list(GENERATORS.items()):
            monkeypatch.setitem(GENERATORS, gen, (declared, build, maps))
        for gen, spec in SMALL_SPECS.items():
            for auto in ("zz", "t0", "file"):
                with pytest.raises(CliError, match="no automorphism named"):
                    build_generated(spec, auto)
        code, out, err = run(capsys, "isometry", "--gen", "lattice:radius=1000000,margin=4",
                             "--auto", "zz", "--do", "validate")
        assert code == 2 and out == ""
        assert err == "error: no automorphism named 'zz' for this target\n"

    def test_t0_is_refused_before_the_build(self, capsys, monkeypatch):
        declared, _, maps = GENERATORS["lattice"]
        monkeypatch.setitem(GENERATORS, "lattice", (declared, None, maps))
        code, out, err = run(capsys, "generate", "--gen", "lattice:radius=1000,margin=4",
                             "--auto", "t0")
        assert code == 2 and out == ""
        assert err == "error: no automorphism named 't0' for this target\n"

    def test_a_missing_input_with_an_unknown_map_names_the_map(self, capsys, tmp_path):
        code, out, err = run(capsys, "theorems", "--input", str(tmp_path / "missing.txt"),
                             "--auto", "zz", "--do", "all")
        assert code == 2 and out == ""
        assert err == "error: no automorphism named 'zz' for this target\n"

    def test_another_generators_map_exits_two(self, capsys):
        code, out, err = run(
            capsys, "isometry", "--gen", "icosahedron", "--auto", "rotate", "--do", "all"
        )
        assert code == 2 and out == ""
        assert err == "error: no automorphism named 'rotate' for this target\n"


class TestGenerateCommand:
    def test_generate_then_check_pipeline(self, capsys, tmp_path):
        f = tmp_path / "octa.txt"
        code, _, _ = run(
            capsys, "generate", "--gen", "octahedron", "--out", str(f)
        )
        assert code == 0
        code, out, _ = run(capsys, "check", "--input", str(f), "--checks", "k-large", "--k", "5")
        assert code == 0
        assert "no" in out

    def test_generate_with_map(self, capsys, tmp_path):
        f = tmp_path / "c6.txt"
        code, _, _ = run(
            capsys, "generate", "--gen", "cycle:n=6", "--auto", "rotate", "--out", str(f)
        )
        assert code == 0
        text = f.read_text()
        assert "map 0 1" in text and "map 5 0" in text

    def test_window_header_comment(self, capsys):
        code, out, _ = run(capsys, "generate", "--gen", "lattice:radius=3,margin=1")
        assert code == 0
        assert "# window basepoint=" in out


class TestDeterminism:
    BATTERY = [
        ["check", "--gen", "lattice:radius=6,margin=2", "--checks",
         "tc,qc,locally-k-large,weakly-systolic", "--format", "json"],
        ["check", "--gen", "icosahedron", "--checks", "all", "--format", "json"],
        ["isometry", "--gen", "lattice:radius=6,margin=2", "--auto", "glide",
         "--do", "all", "--format", "json"],
        ["theorems", "--gen", "thick_line:k=2,n=10", "--auto", "shift",
         "--do", "all", "--format", "json"],
    ]

    def collect(self, capsys):
        outs = []
        for argv in self.BATTERY:
            code = main(argv)
            out = capsys.readouterr().out
            assert code == 0
            outs.append(strip_timing(out))
        return outs

    def test_repeat_runs_byte_identical(self, capsys):
        assert self.collect(capsys) == self.collect(capsys)


def _json_records(argv) -> tuple[int, list[dict]]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--format", "json"])
    if code == 2:
        return code, []
    return code, json.loads(strip_timing(out.getvalue()))["records"]


_CHECK_TARGETS = st.one_of(
    st.sampled_from([
        "octahedron", "icosahedron", "cone_over_cycle:n=7", "hex_torus:p=4,q=4", "wheel:k=5",
        "extended_wheel5:dominated=yes", "lattice:radius=5,margin=2",
    ]),
    st.builds(
        "random:n={},p={},seed={}".format,
        st.integers(6, 11), st.sampled_from([0.3, 0.45, 0.6]), st.integers(0, 60),
    ),
)
_MAPPED_TARGETS = st.sampled_from([
    ("octahedron", "antipodal"),
    ("lattice:radius=6,margin=3", "t1"),
    ("lattice:radius=6,margin=3", "glide"),
    ("thick_line:k=2,n=10", "shift"),
    ("hex_torus:p=4,q=4", "translate"),
    ("cone_over_cycle:n=6", "rotate"),
])


class TestSharedScans:
    """Scans shared by several tokens run once per target; every record is
    still the one its token gives when it runs alone."""

    def assert_each_token_alone_agrees(self, argv, option, tokens):
        code, together = _json_records(argv + [option, "all"])
        assume(code != 2)
        alone = []
        for token in tokens:
            code_alone, records = _json_records(argv + [option, token])
            assert code_alone == 0, (argv, token)
            alone += records
        assert together == alone, argv

    @given(_CHECK_TARGETS, st.integers(3, 7), st.integers(4, 8),
           st.sampled_from(["graph", "sd", "composite"]))
    @settings(max_examples=40, deadline=None)
    def test_check_all(self, spec, k, max_len, mode):
        argv = ["check", "--gen", spec, "--k", str(k), "--max-len", str(max_len), "--mode", mode]
        self.assert_each_token_alone_agrees(argv, "--checks", CHECKS)

    @given(_MAPPED_TARGETS, st.sampled_from(["isometry", "theorems"]), st.sampled_from([1, 2]))
    @settings(max_examples=20, deadline=None)
    def test_isometry_and_theorems_all(self, target, command, power):
        spec, auto = target
        argv = [command, "--gen", spec, "--auto", auto, "--power", str(power)]
        self.assert_each_token_alone_agrees(
            argv, "--do", ISOMETRY if command == "isometry" else THEOREMS
        )

    def test_weak_modularity_reuses_the_distance_scans(self, monkeypatch):
        from systolic.complexes import DistanceOracle

        radii = []
        original = DistanceOracle.ball

        def counted(self, source, radius):
            radii.append(radius)
            return original(self, source, radius)

        monkeypatch.setattr(DistanceOracle, "ball", counted)

        def balls(checks):
            radii.clear()
            argv = ["check", "--gen", "lattice:radius=10,margin=4", "--checks", checks]
            assert main(argv + ["--out", os.devnull]) == 0
            return len(radii), radii.count(4)

        base = balls("tc,qc")
        # weakly-modular is TC and QC, so after them it asks for no ball at all
        assert balls("tc,qc,weakly-modular") == base
        # weakly-systolic adds a 4-cycle scan and a connectivity test, but no
        # ball of the trust radius 4, where every TC and QC source reads
        assert balls("tc,qc,weakly-modular,weakly-systolic")[1] == base[1]


class TestDeadlines:
    """Inputs with few vertices but exponentially many cliques answer at
    once: vertex links decide local k-largeness, maximal cliques decide
    that a facets input is flag, and the sphere walk stops where no meet can
    shrink.  Each runs in a child process, so that a clique walk would fail
    at the timeout instead of holding the suite."""

    def verdicts(self, *argv):
        proc = subprocess.run(
            [sys.executable, "-m", "systolic.cli", *argv, "--format", "json"],
            env=dict(os.environ, PYTHONPATH=SRC),
            capture_output=True,
            text=True,
            timeout=5,
        )
        assert proc.returncode == 0 and proc.stderr == ""
        return [r["verdict"] for r in json.loads(proc.stdout)["records"]]

    def test_links_of_a_40_clique(self):
        got = self.verdicts("check", "--gen", "complete:n=40", "--checks", "k-large,locally-k-large")
        assert got == ["yes", "yes"]

    def test_systolic_on_a_40_clique(self):
        # every vertex of a clique is dominated, so the strong-collapse core
        # is one vertex before the collapse pass would list 2^40 - 1 simplices
        got = self.verdicts("check", "--gen", "complete:n=40", "--checks", "systolic")
        assert got == ["yes"]

    def test_one_facet_on_24_vertices(self, tmp_path):
        f = tmp_path / "simplex24.txt"
        f.write_text("complex simplex24\nmode facets\nvertices 24\nfacet "
                     + " ".join(map(str, range(24))) + "\n")
        assert self.verdicts("check", "--input", str(f), "--checks", "tc,flag") == ["yes", "yes"]

    def test_a_41_clique_with_a_pendant_vertex(self, tmp_path):
        # every simplex of sphere 2 around the pendant vertex 0 has the inner
        # set {1}, so none of the 2^40 of them can fail
        f = tmp_path / "pendant.txt"
        f.write_text("complex pendant\nmode facets\nvertices 42\nfacet "
                     + " ".join(map(str, range(1, 42))) + "\nfacet 0 1\n")
        got = self.verdicts("check", "--input", str(f), "--checks", "sd,tc,qc,flag")
        assert got == ["yes"] * 4


class TestStartup:
    def test_import_loads_no_thread_pool(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, systolic.cli; print('concurrent.futures' in sys.modules)"],
            env=dict(os.environ, PYTHONPATH=SRC),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0 and proc.stdout == "False\n"


def _token_list(table):
    return st.one_of(
        st.just("all"),
        st.lists(st.sampled_from([*table, "zz", ""]), min_size=1, max_size=4).map(",".join),
    )


_small = st.integers(min_value=-2, max_value=9)
# a misspelled or foreign key next to the ones the generator reads; only here
# may a lattice radius be huge, since the key is refused before any build
_MISSPELLED = st.builds(
    "{}{}=3".format,
    st.one_of(
        st.sampled_from(["lattice:", "octahedron:", "cycle:n=5,"]),
        st.builds("lattice:radius={},margin=4,".format, st.integers(1, 10**6)),
    ),
    st.sampled_from(["radus", "m", "k"]),
)
_GEN_SPECS = st.one_of(
    st.builds("lattice:radius={},margin={}".format, st.integers(0, 5), st.integers(0, 5)),
    st.builds("thick_line:k={},n={}".format, st.integers(-1, 3), _small),
    st.builds("hex_torus:p={},q={}".format, st.integers(-1, 5), st.integers(-1, 5)),
    st.builds("random:n={},p={},seed={}".format, _small, st.floats(-0.5, 1.5), st.integers(0, 99)),
    st.builds("{}:n={}".format, st.sampled_from(["cycle", "complete", "cone_over_cycle"]), _small),
    st.builds("wheel:k={}".format, _small),
    st.builds("extended_wheel5:dominated={}".format, st.sampled_from(["yes", "0", "maybe"])),
    st.sampled_from(["octahedron", "icosahedron", "lattice", "cycle", "cycle:n=x", "cube", ":"]),
    _MISSPELLED,
)
_AUTOS = st.sampled_from(
    ["identity", "t1", "t-2", "t0", "glide", "shift", "translate", "antipodal", "rotate",
     "file", "zz"]
)
_NUMBERS = st.integers(min_value=-3, max_value=9).map(str)


def _argv(command, draw):
    """Arguments argparse accepts, with values the program itself must reject
    or handle: unknown names and tokens, zero or negative sizes and flags."""
    argv = [command, "--gen", draw(_GEN_SPECS)]
    if command == "generate":
        return argv + ["--auto", draw(_AUTOS)] if draw(st.booleans()) else argv
    if command != "isometry":
        argv += ["--oracle-budget", draw(st.integers(-5, 200).map(str))]
    argv += ["--format", draw(st.sampled_from(["text", "json"]))]
    if command == "check":
        argv += ["--checks", draw(_token_list(CHECKS)), "--k", draw(_NUMBERS)]
        argv += ["--max-len", draw(_NUMBERS)]
        argv += ["--mode", draw(st.sampled_from(["graph", "sd", "composite"]))]
        if draw(st.booleans()):
            argv += ["--require", draw(_token_list(CHECKS))]
        return argv
    table = ISOMETRY if command == "isometry" else THEOREMS
    argv += ["--auto", draw(_AUTOS), "--power", draw(_NUMBERS), "--do", draw(_token_list(table))]
    if command == "theorems" and draw(st.booleans()):
        argv += ["--require", draw(_token_list(THEOREMS))]
    return argv


class TestArbitraryArguments:
    @given(st.sampled_from(["check", "isometry", "theorems", "generate"]), st.data())
    @settings(max_examples=150, deadline=None)
    def test_exit_status_is_0_1_or_2_and_2_says_why(self, command, data):
        argv = _argv(command, data.draw)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), argv
        if code == 2:
            assert err.getvalue().startswith("error: "), argv
        else:
            assert err.getvalue() == "", argv

    @given(st.sampled_from(["isometry", "theorems", "generate"]), st.integers(1, 10**6),
           st.sampled_from(["zz", "t0", "t-0", "rotate", "shift", "file"]))
    @settings(max_examples=50, deadline=1000)
    def test_an_unknown_map_exits_two_within_the_deadline(self, command, radius, auto):
        argv = [command, "--gen", f"lattice:radius={radius},margin=4", "--auto", auto]
        if command != "generate":
            argv += ["--do", "all"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code == 2 and out.getvalue() == "", argv
        assert err.getvalue() == f"error: no automorphism named {auto!r} for this target\n"

    @given(st.sampled_from(["check", "isometry", "theorems", "generate"]), st.data())
    @settings(max_examples=50, deadline=1000)
    def test_a_misspelled_key_exits_two_within_the_deadline(self, command, data):
        argv = _argv(command, data.draw)
        argv[2] = data.draw(_MISSPELLED)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code == 2 and err.getvalue().startswith("error: "), argv
