"""Command-line interface: commands, exit codes, report determinism."""

import json
import os
import random
import subprocess
import sys

import pytest

import fshom
from fshom.cli import main
from fshom.exact import ZZ
from fshom.homology import ReducedChainComplex
from randgen import random_torsion_complex


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
                    cycle = R.cycle_of_class(d, R.class_from_vector(
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

    def test_out_flag_writes_file(self, capsys, fixture_path, tmp_path):
        target = tmp_path / "report.json"
        code = main(["homology", "--json", fixture_path("reference.json"),
                     "--out", str(target)])
        captured = capsys.readouterr()
        assert code == 0 and captured.out == ""
        assert json.loads(target.read_text())["ring"] == "z"

    def test_module_entry_point(self, fixture_path):
        # the child finds the package where this process found it
        src = os.path.dirname(os.path.dirname(fshom.__file__))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "fshom.cli", "validate",
             fixture_path("reference.json")],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0 and "valid" in proc.stdout
