"""Command-line interface: commands, exit codes, report determinism."""

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

import fshom
from fshom.cli import build_parser, main
from fshom.exact import ZZ
from fshom.homology import ReducedChainComplex
from oracles import cycle_of_class
from randgen import random_torsion_complex


def child_env() -> dict:
    """The environment of a child interpreter that finds the package where
    this process found it."""
    src = os.path.dirname(os.path.dirname(fshom.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_valid_project(self, capsys, fixture_path):
        code, out, _ = run(capsys, "validate", fixture_path("reference.json"))
        assert code == 0 and "valid" in out

    def test_violations_exit_one(self, capsys, fixture_path):
        code, out, _ = run(capsys, "validate", fixture_path("broken.json"))
        assert code == 1
        assert "does not dominate" in out and "invalid" in out

    def test_json_shape(self, capsys, fixture_path):
        code, out, _ = run(capsys, "validate", "--json",
                           fixture_path("reference.json"))
        report = json.loads(out)
        assert report["valid"] and report["simplex_counts"] == [5, 5, 1]


class TestHomology:
    def test_text_report(self, capsys, fixture_path):
        code, out, _ = run(capsys, "homology", fixture_path("reference.json"))
        assert code == 0
        assert "H_0 = Z^2" in out and "H_1 = Z" in out
        assert "<0,1> - <0,3> + <1,3>" in out

    def test_json_generators(self, capsys, fixture_path):
        code, out, _ = run(capsys, "homology", "--json", fixture_path("reference.json"))
        report = json.loads(out)
        assert report["ring"] == "z"
        d0, d1, d2 = report["degrees"]
        assert d0["free_generators"] == [{"3": 1}, {"4": 1}]
        assert d1["free_generators"] == [{"0,1": 1, "0,3": -1, "1,3": 1}]
        assert d2["description"] == "0"

    def test_ring_flag(self, capsys, fixture_path):
        code, out, _ = run(capsys, "homology", "--ring", "zmod:2", "--degree", "1",
                           fixture_path("reference.json"))
        assert code == 0 and "H_1 = Z/2" in out

    def test_degree_out_of_range(self, capsys, fixture_path):
        code, _, err = run(capsys, "homology", "--degree", "9",
                           fixture_path("reference.json"))
        assert code == 2 and "--degree" in err

    def test_huge_modulus_exits_two(self, capsys, fixture_path):
        code, _, err = run(capsys, "homology", "--ring", f"zmod:{10 ** 400 + 1}",
                           fixture_path("reference.json"))
        assert code == 2 and "too large" in err


class TestEta:
    def test_full_report(self, capsys, fixture_path):
        code, out, _ = run(capsys, "eta", "--json", fixture_path("reference.json"))
        assert code == 0
        report = json.loads(out)
        r0 = report["reports"][0]
        assert r0["degree"] == 0 and r0["betti"] == 2
        assert [g["eta"] for g in r0["generators"]] == ["x | y", "y"]
        assert r0["kappa_values"] == ["1", "x", "x & y", "y"]
        assert r0["hdl"]["x"]["description"] == "Z"
        assert r0["hdl"]["1"]["description"] == "0"
        assert r0["cuts"]["x & y"]["description"] == "Z^2"
        r1 = report["reports"][1]
        assert [g["eta"] for g in r1["generators"]] == ["x"]
        assert r1["generators"][0]["chain"] == {"0,1": 1, "0,3": -1, "1,3": 1}

    def test_generator_chains_are_the_class_representatives(self, capsys, tmp_path):
        # torsion and free generators in order, each the representative cycle
        # of its unit class, on complexes with two torsion generators
        rng = random.Random(7)
        checked = 0
        while checked < 3:
            K = random_torsion_complex(rng)
            R = ReducedChainComplex(K, ZZ)
            if len(R.torsion[1]) < 2:
                continue
            checked += 1
            project = tmp_path / "torsion.json"
            project.write_text(json.dumps({
                "lattice": {"kind": "fdl", "generators": ["x"]},
                "complex": {"maximal": [list(s.vertices) for s in K.maximal_simplices()]}}))
            code, out, _ = run(capsys, "eta", "--json", str(project))
            assert code == 0
            for entry in json.loads(out)["reports"]:
                d = entry["degree"]
                amb = R.ambient(d)
                want = []
                for i in range(amb.length):
                    cycle = cycle_of_class(R, d, R.class_from_vector(
                        d, [int(i == j) for j in range(amb.length)]))
                    want.append({",".join(map(str, s.vertices)): c
                                 for s, c in zip(K.simplices(d), cycle) if c})
                assert [g["chain"] for g in entry["generators"]] == want
                assert [g.get("order") for g in entry["generators"]] == \
                    list(amb.torsion) + [None] * amb.free_rank

    def test_class_query(self, capsys, fixture_path):
        code, out, _ = run(capsys, "eta", "--degree", "0", "--class", "0,1",
                           fixture_path("reference.json"))
        assert code == 0 and "= y" in out
        code, out, _ = run(capsys, "eta", "--json", "--degree", "1", "--class", "1",
                           fixture_path("reference.json"))
        report = json.loads(out)
        assert report["eta"] == "x"
        assert report["solvable_levels"] == ["x", "x & y"]

    def test_class_requires_degree(self, capsys, fixture_path):
        code, _, err = run(capsys, "eta", "--class", "1",
                           fixture_path("reference.json"))
        assert code == 2 and "--degree" in err

    def test_class_length_checked(self, capsys, fixture_path):
        code, _, err = run(capsys, "eta", "--degree", "0", "--class", "1,2,3",
                           fixture_path("reference.json"))
        assert code == 2 and "coordinates" in err

    def test_invalid_mu_exits_one(self, capsys, fixture_path):
        code, _, err = run(capsys, "eta", fixture_path("broken.json"))
        assert code == 1 and "face-monotone" in err

    def test_refusal_exits_three(self, capsys, fixture_path, tmp_path):
        code = main(["import-filtration", fixture_path("filtration_antichain.json"),
                     "--out", str(tmp_path / "p.json")])
        captured = capsys.readouterr()
        assert code == 0 and "meet-prime" in captured.err
        code, _, err = run(capsys, "eta", str(tmp_path / "p.json"))
        assert code == 3 and "meet-prime" in err


class TestCutsAndRanks:
    def test_explicit_levels(self, capsys, fixture_path):
        code, out, _ = run(capsys, "cuts", "--degree", "0",
                           "--levels", "x | y", "--levels", "1",
                           fixture_path("reference.json"))
        assert code == 0
        assert "eta_0 cut at x | y = Z" in out and "eta_0 cut at 1 = 0" in out

    def test_bad_level_exits_two(self, capsys, fixture_path):
        code, _, err = run(capsys, "cuts", "--levels", "x & w",
                           fixture_path("reference.json"))
        assert code == 2 and "bad level" in err

    def test_deeply_nested_level_exits_two(self, capsys, fixture_path):
        level = "(" * 3000 + "x" + ")" * 3000
        code, out, err = run(capsys, "cuts", "--levels", level, fixture_path("reference.json"))
        assert code == 2 and out == ""
        assert err.startswith("error: bad level") and err.count("\n") == 1
        assert "nested too deeply" in err

    def test_rank_table(self, capsys, fixture_path):
        code, out, _ = run(capsys, "rank-table", "--json", "--degree", "0",
                           fixture_path("reference.json"))
        report = json.loads(out)
        assert report["reports"][0]["ranks"] == \
            {"1": 0, "x": 1, "x & y": 2, "y": 2}

    def test_wide_value_set_is_not_refused(self, capsys, fixture_path):
        # L(kappa_0) has 19 values and is no chain
        code, out, err = run(capsys, "cuts", fixture_path("wide_kappa.json"))
        assert code == 0 and err == ""
        assert "eta_1 cut at x & y & z = Z/2^5" in out and "eta_1 cut at x | y = 0" in out


class TestProjectBuilders:
    def test_build_chromatic(self, capsys, fixture_path):
        code, out, _ = run(capsys, "build-chromatic", fixture_path("points.csv"),
                           "--radius", "2", "--max-dim", "2")
        assert code == 0
        project = json.loads(out)
        assert project["complex"]["maximal"] == [[1, 2], [2, 3], [0, 1, 4], [0, 3, 4]]
        assert project["lattice"] == {"kind": "fdl", "generators": ["blue", "red"]}
        assert len(project["mu"]) == 14

    def test_build_then_analyze(self, capsys, fixture_path, tmp_path):
        out_path = tmp_path / "chromatic.json"
        code = main(["build-chromatic", fixture_path("points.csv"),
                     "--radius", "2", "--out", str(out_path)])
        capsys.readouterr()
        assert code == 0
        code, out, _ = run(capsys, "homology", str(out_path))
        assert code == 0 and "H_0 = Z" in out and "H_1 = Z" in out

    def test_build_chromatic_reads_a_byte_order_mark(self, capsys, tmp_path):
        """A CSV saved with a UTF-8 byte-order mark builds the same project,
        also when the mark sits right before the 'label' header."""
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(b"label,x,y\nred,0,0\nred,2,0\nblue,2,2\nred,0,2\n")
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        outs = []
        for path in (plain, marked):
            code, out, err = run(capsys, "build-chromatic", str(path), "--radius", "2")
            assert code == 0 and err == ""
            outs.append(out.encode())
        assert outs[0] == outs[1]

    def test_build_chromatic_field_over_the_csv_limit_exits_two(self, capsys, tmp_path):
        """A field longer than the csv module's field limit is a readable
        input error naming the file, not a traceback."""
        path = tmp_path / "long.csv"
        path.write_text("x,y,label\n0,0," + "a" * 200_000 + "\n1,0,b\n")
        code, out, err = run(capsys, "build-chromatic", str(path), "--radius", "2")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and str(path) in err

    def test_json_float_radius_reads_as_its_decimal(self, capsys, tmp_path):
        """The JSON radius 0.3 is 3/10, as `--radius 0.3` is, so both link
        the points 0.1 and 0.4 and give the same homology."""
        (tmp_path / "points.csv").write_text("x,y,label\n0.1,0,a\n0.4,0,b\n")
        built = tmp_path / "built.json"
        code, _, err = run(capsys, "build-chromatic", str(tmp_path / "points.csv"),
                           "--radius", "0.3", "--out", str(built))
        assert code == 0 and err == ""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"chromatic": {"csv": "points.csv", "radius": 0.3}}))
        reports = [run(capsys, "homology", str(path)) for path in (built, spec)]
        assert reports[0] == reports[1] and reports[0][0] == 0
        assert "H_0 = Z\n" in reports[0][1]

    def test_import_filtration(self, capsys, fixture_path):
        code, out, err = run(capsys, "import-filtration",
                             fixture_path("filtration_chain.json"))
        assert code == 0 and err == ""
        project = json.loads(out)
        values = {tuple(e["simplex"]): e["value"] for e in project["mu"]}
        assert values == {(0,): "{a,b}", (1,): "{b}", (0, 1): "{b}"}

    def test_import_bare_filtration_spec(self, capsys, tmp_path):
        spec = tmp_path / "bare.json"
        spec.write_text(json.dumps({
            "poset": {"elements": ["a"], "covers": []},
            "stages": {"a": [[0]]},
        }))
        code, out, _ = run(capsys, "import-filtration", str(spec))
        assert code == 0
        assert json.loads(out)["lattice"]["kind"] == "upset"


class TestErrorsAndDeterminism:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "homology", "/no/such/file.json")
        assert code == 2 and "error:" in err

    def test_invalid_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{]")
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 2

    @pytest.mark.parametrize("maximal", [[[0, 1.5]], [[True, 2]], [["3", 1]]])
    def test_non_integer_vertex_ids_exit_two(self, capsys, tmp_path, maximal):
        project = tmp_path / "project.json"
        project.write_text(json.dumps({"lattice": {"kind": "fdl", "generators": ["x"]},
                                       "complex": {"maximal": maximal}}))
        code, out, err = run(capsys, "validate", str(project))
        assert code == 2 and out == "" and "vertex ids must be integers" in err

    def test_non_integer_mu_simplex_exits_two(self, capsys, tmp_path):
        project = tmp_path / "project.json"
        project.write_text(json.dumps({"lattice": {"kind": "fdl", "generators": ["x"]},
                                       "complex": {"maximal": [[0, 1]]},
                                       "mu": [{"simplex": [0, 1.0], "value": "x"}]}))
        code, _, err = run(capsys, "validate", str(project))
        assert code == 2 and "mu entry 0" in err

    def test_repeated_bad_mu_value_names_its_first_entry(self, capsys, tmp_path):
        project = tmp_path / "project.json"
        project.write_text(json.dumps({"lattice": {"kind": "fdl", "generators": ["x"]},
                                       "complex": {"maximal": [[0, 1]]},
                                       "mu": [{"simplex": [0], "value": "x"},
                                              {"simplex": [1], "value": "x & w"},
                                              {"simplex": [0, 1], "value": "x & w"}]}))
        code, out, err = run(capsys, "validate", str(project))
        assert code == 2 and out == ""
        assert "mu entry 1: unknown generator 'w'" in err and "mu entry 2" not in err

    @pytest.mark.parametrize("radius", [float("nan"), float("inf")])
    def test_non_finite_radius_exits_two(self, capsys, tmp_path, fixture_path, radius):
        project = tmp_path / "project.json"
        project.write_text(json.dumps({"chromatic": {"csv": fixture_path("points.csv"),
                                                     "radius": radius}}))
        code, _, err = run(capsys, "validate", str(project))
        assert code == 2 and "finite" in err

    def test_radius_whose_float_square_overflows_validates(self, capsys, tmp_path, fixture_path):
        """A radius is read as an exact decimal, so 1e200 is a valid radius."""
        project = tmp_path / "project.json"
        project.write_text(json.dumps(chromatic_project(radius=1e200)))
        shutil.copy(fixture_path("points.csv"), tmp_path)
        code, out, err = run(capsys, "validate", str(project))
        assert code == 0 and err == "" and out.endswith("\nvalid\n")

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_reports_byte_identical(self, capsys, fixture_path):
        outs = []
        for _ in range(2):
            _, out, _ = run(capsys, "eta", "--json", fixture_path("reference.json"))
            outs.append(out)
        assert outs[0] == outs[1]

    def test_reports_and_projects_have_one_writer(self, capsys, monkeypatch, fixture_path):
        """Every JSON report goes through `dump_json` and every project
        through `dump_project`: the standard encoder refuses here, and the
        bytes are still its own."""
        def refuse(*args, **kwargs):
            raise AssertionError("the standard JSON encoder was called")

        monkeypatch.setattr(json, "dumps", refuse)
        monkeypatch.setattr(json.JSONEncoder, "iterencode", refuse)
        reference = fixture_path("reference.json")
        runs = [("build-chromatic", fixture_path("points.csv"), "--radius", "2"),
                ("import-filtration", fixture_path("filtration_chain.json"))]
        runs += [(command, reference, "--json")
                 for command in ("validate", "homology", "eta", "cuts", "rank-table")]
        outs = []
        for argv in runs:
            code, out, err = run(capsys, *argv)
            assert code == 0 and err == "", argv
            outs.append(out)
        monkeypatch.undo()
        for out in outs:
            assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"

    def test_out_flag_writes_file(self, capsys, fixture_path, tmp_path):
        target = tmp_path / "report.json"
        code = main(["homology", "--json", fixture_path("reference.json"),
                     "--out", str(target)])
        captured = capsys.readouterr()
        assert code == 0 and captured.out == ""
        assert json.loads(target.read_text())["ring"] == "z"

    def test_module_entry_point(self, fixture_path):
        proc = subprocess.run(
            [sys.executable, "-m", "fshom.cli", "validate",
             fixture_path("reference.json")],
            capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0 and "valid" in proc.stdout

    def test_start_up_imports_no_dataclasses_or_fractions(self):
        # every CLI run pays for its imports; no computation needs these, and
        # fractions is imported only for a coordinate that is not int text
        # (-S: a site hook may import them itself)
        code = ("import sys, fshom.cli; "
                "print(sorted({'dataclasses', 'inspect', 'fractions', 'decimal'} & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-S", "-c", code],
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0 and proc.stdout == "[]\n", proc.stderr


def filtration_project(covers):
    return {"filtration": {"poset": {"elements": ["a", "b", "c"], "covers": covers},
                           "stages": {"a": [[0]], "b": [[0]], "c": [[0]]}}}


def filtration_stages(**stages):
    """A filtration over the chain a < b < c, every stage [[0]] unless given."""
    return {"filtration": {"poset": {"elements": ["a", "b", "c"], "covers": [["a", "b"], ["b", "c"]]},
                           "stages": {"a": [[0]], "b": [[0]], "c": [[0]], **stages}}}


def chromatic_project(**spec):
    return {"chromatic": {"csv": "points.csv", "radius": 2, **spec}}


def lattice_project(lattice):
    return {"lattice": lattice, "complex": {"maximal": [[0, 1]]}}


def mu_project(simplex, value="x"):
    return {**lattice_project({"kind": "fdl", "generators": ["x"]}),
            "mu": [{"simplex": simplex, "value": value}]}


class TestMalformedSpecs:
    """A spec of the wrong shape exits 2 with one `error:` line, not a traceback."""

    @pytest.mark.parametrize("data, message", [
        (lattice_project({"kind": "total", "levels": 5}), "'levels' must be a list"),
        (lattice_project({"kind": "total", "levels": "ab"}), "'levels' must be a list"),
        (lattice_project({"kind": "upset", "elements": ["a"], "covers": [["a"]]}),
         "must be a pair"),
        (lattice_project({"kind": "upset", "elements": ["a"], "covers": 3}),
         "'covers' must be a list"),
        (filtration_project([["a", "b", "c"]]), "bad poset: cover"),
        (chromatic_project(max_dim="z"), "'max_dim' must be an integer"),
        (chromatic_project(csv=5), "'csv' must be a file path"),
        (lattice_project({"kind": "fdl", "generators": [["x"]]}),
         "entry ['x'] of 'generators' must be a string"),
        (lattice_project({"kind": "upset", "elements": [{"a": 1}, "b"], "covers": []}),
         "entry {'a': 1} of 'elements' must be a string"),
        (lattice_project({"kind": "total", "levels": [None, True, 2.5]}),
         "entry None of 'levels' must be a string"),
        (lattice_project({"kind": "upset", "elements": ["a", "1"], "covers": [["a", 1]]}),
         "the entries of cover ['a', 1] must be strings"),
        (filtration_project([["a", 2]]), "bad poset: the entries of cover"),
        ({**lattice_project({"kind": "fdl", "generators": ["x"]}),
          "mu": [{"simplex": [0], "value": "(" * 3000 + "x" + ")" * 3000}]},
         "mu entry 0: expression nested too deeply to parse"),
        ("[" * 100000 + "]" * 100000, "JSON nested too deeply to parse"),
        (mu_project([0], 1), "mu entry 0: value must be a string"),
        (mu_project([0], None), "mu entry 0: value must be a string"),
        (mu_project([0], ["x"]), "mu entry 0: value must be a string"),
        # equal as tuples to the edge <0,1>, but not integer vertex lists
        (mu_project([0, 1.0]), "mu entry 0: vertex ids must be integers, not 1.0"),
        (mu_project([0, True]), "mu entry 0: vertex ids must be integers, not True"),
        (mu_project([True, 1]), "mu entry 0: vertex ids must be integers, not True"),
        (mu_project([1, 1]), "mu entry 0: duplicate vertices in (1, 1)"),
        (filtration_stages(b=5), "stage 'b': 'maximal' must be a non-empty list"),
        (filtration_stages(c=[]), "stage 'c': 'maximal' must be a non-empty list"),
        (filtration_stages(b=[[0], [1, 1]]), "stage 'b': bad complex: duplicate vertices in (1, 1)"),
        (filtration_stages(c=["01"]), "stage 'c': bad complex: vertex ids must be integers, not '0'"),
        # equal as tuples to a simplex that an earlier stage lists
        (filtration_stages(a=[[0, 1]], b=[[0, 1.0]]),
         "stage 'b': bad complex: vertex ids must be integers, not 1.0"),
        (filtration_stages(a=[[1, 2]], b=[[True, 2]]),
         "stage 'b': bad complex: vertex ids must be integers, not True"),
        # the cover b < c fails; the first failing comparable pair is a < c
        (filtration_stages(a=[[0]], b=[[0], [1]], c=[[1]]),
         "filtration is not monotone: stage 'a' is not contained in stage 'c'"),
    ], ids=["levels-int", "levels-string", "cover-single", "covers-int",
            "filtration-cover-triple", "max-dim-string", "csv-int", "generator-list",
            "element-object", "levels-not-strings", "cover-int-entry", "filtration-cover-int",
            "mu-value-nested", "json-nested", "mu-value-int", "mu-value-null", "mu-value-list",
            "mu-vertex-float", "mu-vertex-bool", "mu-vertex-bool-first", "mu-vertex-repeated",
            "stage-int", "stage-empty", "stage-vertex-repeated", "stage-string-simplex",
            "stage-vertex-float", "stage-vertex-bool", "stage-not-monotone"])
    def test_exits_two(self, capsys, tmp_path, fixture_path, data, message):
        """`data` is the project, or the project file's text when a string."""
        project = tmp_path / "project.json"
        project.write_text(data if isinstance(data, str) else json.dumps(data))
        shutil.copy(fixture_path("points.csv"), tmp_path)
        code, out, err = run(capsys, "validate", str(project))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err


class TestFileErrors:
    """Unreadable inputs and unwritable outputs exit 2 with one `error:` line."""

    @staticmethod
    def one_error_line(err: str) -> bool:
        return err.startswith("error: ") and err.count("\n") == 1

    def test_missing_csv_for_build_chromatic(self, capsys, tmp_path):
        code, out, err = run(capsys, "build-chromatic", str(tmp_path / "missing.csv"),
                             "--radius", "2")
        assert code == 2 and out == "" and self.one_error_line(err)
        assert "cannot read" in err

    def test_missing_csv_of_chromatic_project(self, capsys, tmp_path):
        project = tmp_path / "project.json"
        project.write_text(json.dumps({"chromatic": {"csv": "missing.csv", "radius": 2}}))
        code, out, err = run(capsys, "validate", str(project))
        assert code == 2 and out == "" and self.one_error_line(err)
        assert "missing.csv" in err

    def test_project_not_utf8(self, capsys, tmp_path):
        project = tmp_path / "project.json"
        project.write_bytes(b'{"ring": "\xff"}')
        code, out, err = run(capsys, "homology", str(project))
        assert code == 2 and out == "" and self.one_error_line(err)
        assert "cannot read" in err

    def test_filtration_spec_not_utf8(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_bytes(b'{"poset": "\xff"}')
        code, out, err = run(capsys, "import-filtration", str(spec))
        assert code == 2 and out == "" and self.one_error_line(err)
        assert "cannot read" in err

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="int() has no digit limit")
    @pytest.mark.parametrize("command, document", [
        ("validate", '{"chromatic": {"csv": "points.csv", "radius": %s}}'),
        ("import-filtration", '{"poset": {"elements": ["a"]}, "stages": {"a": [[%s]]}}'),
    ], ids=["validate-radius", "import-filtration-vertex"])
    def test_json_number_past_the_int_digit_limit(self, capsys, tmp_path, command, document):
        """The JSON reader refuses an integer longer than Python's digit
        limit with a ValueError; it is an input error, not a traceback."""
        path = tmp_path / "input.json"
        path.write_text(document % ("9" * 5000))
        code, out, err = run(capsys, command, str(path))
        assert code == 2 and out == "" and self.one_error_line(err)
        assert f"{path}: invalid JSON" in err

    def test_csv_not_utf8(self, capsys, tmp_path):
        points = tmp_path / "points.csv"
        points.write_bytes(b"x,y,label\n0,0,r\xe9d\n")
        code, out, err = run(capsys, "build-chromatic", str(points), "--radius", "2")
        assert code == 2 and out == "" and self.one_error_line(err)
        assert "cannot read" in err

    @pytest.mark.parametrize("argv", [("homology", "--json"), ("eta",)])
    def test_out_in_missing_directory(self, capsys, fixture_path, tmp_path, argv):
        target = tmp_path / "no" / "such" / "report.json"
        code, out, err = run(capsys, *argv, fixture_path("reference.json"),
                             "--out", str(target))
        assert code == 2 and out == "" and self.one_error_line(err)
        assert err.startswith(f"error: cannot write {target}: ")

    def test_out_is_a_directory(self, capsys, fixture_path, tmp_path):
        code, out, err = run(capsys, "build-chromatic", fixture_path("points.csv"),
                             "--radius", "2", "--out", str(tmp_path))
        assert code == 2 and out == "" and self.one_error_line(err)
        assert err.startswith(f"error: cannot write {tmp_path}: ")
