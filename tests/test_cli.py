"""Command-line interface: subcommands, formats, exit codes, manifests."""

import csv
import hashlib
import json
import math

import pytest

from escobar.cli import main
from escobar.geometry import domain_from_json, domain_to_json, make_polygon, make_regular_polygon
from escobar.regions import Cap, max_eta, tuple_from_json, validate_tuple


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------


def test_exact_hexagon(capsys):
    rc, out, _ = run(capsys, "exact", "--ngon", "6", "--k", "3")
    assert rc == 0
    assert "I_3 = 0.75 [exact]" in out


def test_exact_disk_range(capsys):
    rc, out, _ = run(capsys, "exact", "--disk", "--k", "2..4")
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("I_2 = 0.636619772368 [exact]")


def test_exact_csv(tmp_path, capsys):
    out_file = tmp_path / "table.csv"
    rc, _, _ = run(capsys, "exact", "--ngon", "5", "--k", "2,5", "--out", str(out_file))
    assert rc == 0
    with open(out_file, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["k", "value", "kind", "provenance"]
    assert rows[2][0] == "5"
    assert float(rows[2][1]) == pytest.approx(math.cos(math.pi / 5), abs=1e-12)
    # sidecar manifest appears next to the table
    manifest = json.loads((tmp_path / "table.csv.manifest.json").read_text())
    assert manifest["command"] == "exact"
    assert "table.csv" in manifest["digests"]


def test_manifest_keeps_its_six_keys(tmp_path, capsys):
    out_file = tmp_path / "table.csv"
    rc, _, _ = run(capsys, "exact", "--ngon", "5", "--k", "2", "--out", str(out_file))
    assert rc == 0
    manifest = json.loads((tmp_path / "table.csv.manifest.json").read_text())
    assert sorted(manifest) == [
        "command", "config", "digests", "seed", "version", "wall_clock_seconds",
    ]
    assert manifest["digests"] == {"table.csv": hashlib.sha256(out_file.read_bytes()).hexdigest()}
    assert manifest["seed"] is None


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


def test_construct_corner_json(tmp_path, capsys):
    out_file = tmp_path / "tuple.json"
    rc, out, _ = run(
        capsys,
        "construct",
        "--family",
        "corner",
        "--ngon",
        "4",
        "--k",
        "3",
        "--epsilon",
        "1e-9",
        "--out",
        str(out_file),
    )
    assert rc == 0
    assert "max eta =" in out
    data = json.loads(out_file.read_text())
    assert data["family"] == "corner" and data["k"] == 3
    assert len(data["regions"]) == 3
    assert max(data["etas"]) == data["max_eta"]
    # right-angle chain follows the schedule law sin(pi/4)(1 + 2 eps^(1/12))
    law = math.sin(math.pi / 4) * (1 + 2 * (1e-9) ** (1 / 12))
    assert data["max_eta"] == pytest.approx(law, rel=1e-9)


def test_construct_equal_offset(capsys):
    rc, out, _ = run(
        capsys,
        "construct",
        "--family",
        "equal",
        "--ngon",
        "4",
        "--k",
        "2",
        "--offset",
        str(math.sqrt(2) / 2),
    )
    assert rc == 0
    assert "max eta = 0.5" in out


@pytest.mark.parametrize("offset", ["nan", "inf", "-inf"])
def test_construct_non_finite_offset_exit_3(offset, capsys):
    # "chord between s=nan and s=nan ..." before, from the geometry
    rc, out, err = run(
        capsys, "construct", "--family", "equal", "--ngon", "6", "--k", "3", f"--offset={offset}"
    )
    assert rc == 3
    assert out == ""
    assert err == f"error: start_offset must be finite, got {float(offset)}\n"


def test_construct_inscribed(capsys):
    rc, out, _ = run(capsys, "construct", "--family", "inscribed", "--ngon", "6", "--k", "3")
    assert rc == 0
    assert "max eta = 0.75" in out


def test_construct_render(tmp_path, capsys):
    svg_file = tmp_path / "pic.svg"
    rc, _, _ = run(
        capsys,
        "construct",
        "--family",
        "stripe",
        "--rect",
        "0.02",
        "8",
        "--k",
        "4",
        "--render",
        str(svg_file),
    )
    assert rc == 0
    assert svg_file.read_text().startswith("<svg")


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------


def test_optimize_square(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    args = (
        "optimize",
        "--ngon",
        "4",
        "--k",
        "2",
        "--seed",
        "1",
        "--out",
        str(out_file),
    )
    rc, out, _ = run(capsys, *args)
    assert rc == 0
    assert "I_2 <= 0.5 [upper-bound]" in out
    first = out_file.read_bytes()

    rc, _, _ = run(capsys, *args)
    assert rc == 0
    assert out_file.read_bytes() == first  # byte-reproducible


def test_optimize_budget_refusal(capsys):
    rc, _, err = run(
        capsys,
        "optimize",
        "--rect",
        "1",
        "2",
        "--k",
        "3",
        "--grid",
        "100",
        "--budget",
        "1000",
    )
    assert rc == 4
    assert "budget" in err.lower()


def test_optimize_refuses_an_estimate_past_the_float_range(capsys):
    # 400 caps on a rectangle: the node estimate, an exact integer, exceeds 1.8e308
    rc, _, err = run(
        capsys, "optimize", "--rect", "2", "1", "--k", "400", "--grid", "5000",
        "--families", "caps",
    )
    assert rc == 4
    assert "more than 1.8e+308 nodes" in err


def test_optimize_rejects_zero_restarts(capsys):
    rc, _, err = run(capsys, "optimize", "--disk", "--k", "2", "--restarts", "0")
    assert rc == 3
    assert "restarts" in err


def test_optimize_refuses_a_negative_seed_before_searching(capsys, monkeypatch):
    def no_search(*args):
        raise AssertionError("the search ran")

    monkeypatch.setattr("escobar.cli.estimate_ik", no_search)
    rc, out, err = run(capsys, "optimize", "--disk", "--k", "2", "--seed", "-1")
    assert (rc, out, err) == (3, "", "error: seed must be non-negative, got -1\n")


# ---------------------------------------------------------------------------
# conjecture-scan
# ---------------------------------------------------------------------------


def test_scan_csv_and_manifest(tmp_path, capsys):
    out_file = tmp_path / "scan.csv"
    args = ("conjecture-scan", "--n-range", "3..6", "--out", str(out_file))
    rc, _, err = run(capsys, *args)
    assert rc == 0
    assert "pairs scanned" in err

    with open(out_file, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["n", "k", "bound_dn", "kind", "ik_disk", "satisfied"]
    # pairs with 2 <= k < n for n=3..6: 1 + 2 + 3 + 4
    assert len(rows) - 1 == 10
    assert all(r[5] in {"true", "false"} for r in rows[1:])
    # small orders all satisfy the disk comparison
    assert all(r[5] == "true" for r in rows[1:])

    manifest_path = tmp_path / "scan.csv.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    digest = hashlib.sha256(out_file.read_bytes()).hexdigest()
    assert manifest["digests"]["scan.csv"] == digest
    assert manifest["command"] == "conjecture-scan"

    first = out_file.read_bytes()
    rc, _, _ = run(capsys, *args)
    assert rc == 0
    assert out_file.read_bytes() == first


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["conjecture-scan", "--n-range", "3..12", "--k-range", "2..12"],
            "10532a7102255a0f3bde6efc33b0292e21e46ecffe16ee2e3dedfea488216299",
        ),
        (
            ["exact", "--ngon", "6", "--k", "2..6"],
            "6c7f33c6600281830e6e1bcf149b713efd74730dc5d1eb84866b02ff36eee69e",
        ),
        (
            ["conjecture-scan", "--n-range", "3..24", "--k-range", "2..23"],
            "34c4639e44e16c6a4e1c22cd247ac39add5f8ce089a9fd9712639bd4e96dc652",
        ),
    ],
)
def test_csv_bytes_are_pinned(argv, digest, tmp_path, capsys):
    """SHA-256 of three CSVs whose bounds come from the equal-split scan of
    ``exact._equal_boundary_eta`` (the conjecture-scan pairs with k not
    dividing n, up to n = 24 in the third; I_4 and I_5 of the hexagon)."""
    out_file = tmp_path / "table.csv"
    rc, _, _ = run(capsys, *argv, "--out", str(out_file))
    assert rc == 0
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest


def test_scan_stdout(capsys):
    rc, out, _ = run(capsys, "conjecture-scan", "--n-range", "4", "--k-range", "2..3")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,k,bound_dn,kind,ik_disk,satisfied"
    assert len(lines) == 3


# ---------------------------------------------------------------------------
# symmetry-audit
# ---------------------------------------------------------------------------


def test_symmetry_audit(tmp_path, capsys):
    out_file = tmp_path / "audit.json"
    rc, out, _ = run(
        capsys,
        "symmetry-audit",
        "--ngon",
        "5",
        "--trials",
        "50",
        "--out",
        str(out_file),
    )
    assert rc == 0
    assert "overall: OK" in out
    data = json.loads(out_file.read_text())
    assert data["ok"] is True
    assert data["inequality_violations"] == 0


#: SHA-256 of ``symmetry-audit --ngon n --seed s --out`` by (n, s), as the
#: loop that checked every random cap exactly wrote them.
AUDIT_DIGESTS = {
    (3, 5): "5dfe705c49fbcb3c1dbb1df779472e000d3b0a24fd1bf42fe1343dc9bcbea953",
    (4, 5): "f8c417f8b66c0e27943faa056b1972b3599cd29347a2214cfddba1900c6bcf68",
    (5, 5): "bc637ae573a5a5fb9c7d04f0eff0b1e870bb9ea46c6629412767a42f3a44e5bc",
    (6, 5): "080ad0cb80ee83bda9fa1b2f07b81918dff9ec76855f0a375fb3ef349556c2dd",
    (7, 5): "5c1ec9be8ef6a47c662b535bae8b8cc471ef47579e4f755ce0b027632af6abe2",
    (8, 5): "750e85b0ebf2f71b939c424fd6a50ea515ce0dcd20f32be7d9435931fb7112d6",
    (3, 53): "0d289de5d16e4a8f5911c1d089fedd9b08a53a4c5e4189887c5d0fedaf366db1",
    (4, 53): "667ef0f1bebbb78819b4bff96bd8a745e8c1809d9d127d7d1e7aac5050dca8c6",
    (5, 53): "90b1d5a317b147d9d2d9ba16249d3d7be6a4497028247d3af9200a642e41f88e",
    (6, 53): "bfda4b527b358bb964c2940f591a6af62023825fca0adb2b3fae8765ea858c34",
    (7, 53): "bca84804ec8055b40d58fd101d8f284206c663f7400797bf4fc7d652dc6d7623",
    (8, 53): "c55669f9bf3ba8b23506de3a0b87691bf99b2a80c6a6db958959e91e988246ea",
}


@pytest.mark.parametrize("n, seed", sorted(AUDIT_DIGESTS))
def test_symmetry_audit_bytes_are_pinned(n, seed, tmp_path, capsys):
    """The audit screens its random caps in NumPy and re-measures only the
    ones the screen cannot decide; the report's bytes stay those of checking
    every cap."""
    out_file = tmp_path / "audit.json"
    rc, _, _ = run(capsys, "symmetry-audit", "--ngon", str(n), "--seed", str(seed),
                   "--out", str(out_file))
    assert rc == 0
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == AUDIT_DIGESTS[n, seed]


def test_symmetry_audit_refuses_a_negative_seed(capsys):
    # NumPy's "expected non-negative integer" came from the random draws before
    rc, out, err = run(capsys, "symmetry-audit", "--ngon", "5", "--seed", "-1")
    assert (rc, out, err) == (3, "", "error: seed must be non-negative, got -1\n")


# ---------------------------------------------------------------------------
# render
# ---------------------------------------------------------------------------


def test_render_stdout(capsys):
    rc, out, _ = run(capsys, "render", "--disk")
    assert rc == 0
    assert out.startswith("<svg")


def test_render_tuple_roundtrip(tmp_path, capsys):
    tuple_file = tmp_path / "tuple.json"
    rc, _, _ = run(
        capsys,
        "construct",
        "--family",
        "equal",
        "--ngon",
        "6",
        "--k",
        "3",
        "--out",
        str(tuple_file),
    )
    assert rc == 0
    svg_file = tmp_path / "pic.svg"
    rc, _, _ = run(capsys, "render", "--tuple", str(tuple_file), "--out", str(svg_file))
    assert rc == 0
    svg = svg_file.read_text()
    assert svg.startswith("<svg")
    assert svg.count('stroke-width="4"') == 3
    assert (tmp_path / "pic.svg.manifest.json").exists()


def test_optimize_anchored_chain_round_trip(tmp_path, capsys):
    """A depth-10 corner chain survives the report JSON bit for bit."""
    quad = make_polygon([(0.0, 0.0), (3.0, 0.0), (2.6, 1.8), (-0.4, 1.3)])
    dom_file = tmp_path / "quad.json"
    dom_file.write_text(json.dumps(domain_to_json(quad)))
    report_file = tmp_path / "report.json"
    rc, _, _ = run(
        capsys, "optimize", "--domain", str(dom_file), "--k", "10",
        "--families", "corner-strips", "--out", str(report_file),
    )
    assert rc == 0
    data = json.loads(report_file.read_text())
    witness = tuple_from_json(domain_from_json(data["domain"]), data["witness"])
    caps = [r if isinstance(r, Cap) else r.outer for r in witness.regions]
    assert len(caps) == 10 and {c.anchor for c in caps} == {1}
    assert -caps[0].a < 1e-100  # far below what an arclength resolves
    assert validate_tuple(witness) == []
    assert max_eta(witness) == data["value"]

    # render reads the report's witness: one bold piece per exterior walk
    # (the chain's inner ones collapse to dots), one dashed line per chord
    svg_file = tmp_path / "chain.svg"
    rc, _, _ = run(capsys, "render", "--tuple", str(report_file), "--out", str(svg_file))
    assert rc == 0
    svg = svg_file.read_text()
    assert svg.count('stroke-width="4"') == 1 + 2 * 9
    assert svg.count("stroke-dasharray") == 1 + 2 * 9


def test_render_domain_file(tmp_path, capsys):
    dom_file = tmp_path / "hex.json"
    dom_file.write_text(json.dumps(domain_to_json(make_regular_polygon(6))))
    rc, out, _ = run(capsys, "render", "--domain", str(dom_file))
    assert rc == 0
    assert out.startswith("<svg")


# ---------------------------------------------------------------------------
# exit codes and version
# ---------------------------------------------------------------------------


def test_usage_error_exit_2(capsys):
    assert run(capsys, "exact", "--ngon", "6")[0] == 2  # missing --k
    assert run(capsys, "no-such-command")[0] == 2


def test_input_error_exit_3(tmp_path, capsys):
    rc, _, err = run(capsys, "render", "--domain", str(tmp_path / "missing.json"))
    assert rc == 3
    assert "error:" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(capsys, "render", "--domain", str(bad))[0] == 3

    # structurally valid JSON that is not a domain
    bad.write_text('{"wrong": 1}')
    assert run(capsys, "render", "--domain", str(bad))[0] == 3


@pytest.mark.parametrize("edges", ["5", "null", '{"type": "segment"}'])
def test_domain_edges_that_are_no_list_exit_3(edges, tmp_path, capsys):
    # {"edges": 5} printed a TypeError traceback and exited 1
    bad = tmp_path / "bad.json"
    bad.write_text(f'{{"edges": {edges}}}')
    rc, _, err = run(capsys, "exact", "--domain", str(bad), "--k", "2")
    assert rc == 3
    assert err == "error: domain JSON must be an object with an 'edges' list\n"


def test_domain_with_a_huge_integer_exit_3(tmp_path, capsys):
    # an OverflowError traceback and exit 1 before
    bad = tmp_path / "bad.json"
    huge = "1" + "0" * 400
    bad.write_text(f'{{"edges": [{{"type": "segment", "from": [{huge}, 0], "to": [0, 1]}}]}}')
    rc, out, err = run(capsys, "exact", "--domain", str(bad), "--k", "2")
    assert (rc, out) == (3, "")
    assert err == "error: edge 0: malformed entry (int too large to convert to float)\n"


def test_tuple_regions_that_are_no_list_exit_3(tmp_path, capsys):
    # the JSON string "domain" printed a TypeError traceback and exited 1
    bad = tmp_path / "tuple.json"
    for text in ('{"regions": 5}', '"domain"', '"witness"', '["domain"]'):
        bad.write_text(text)
        rc, _, err = run(capsys, "render", "--ngon", "4", "--tuple", str(bad))
        assert rc == 3
        assert err == "error: tuple JSON must be an object with a 'regions' list\n"


@pytest.mark.parametrize(
    "region, message",
    [
        ('{"kind": "cap", "a": NaN, "b": 1}', "cap a must be finite, got nan"),
        ('{"kind": "cap", "a": 0.5, "b": Infinity}', "cap b must be finite, got inf"),
        ('{"kind": "strip", "inner": {"kind": "cap", "a": -Infinity, "b": 0.1, "anchor": 0},'
         ' "outer": {"kind": "cap", "a": -0.2, "b": 0.2, "anchor": 0}}',
         "cap a must be finite, got -inf"),
        # an OverflowError traceback and exit 1 before
        ('{"kind": "cap", "a": 1' + "0" * 400 + ', "b": 1}',
         "malformed region JSON (int too large to convert to float)"),
    ],
)
def test_tuple_with_a_non_finite_cut_exit_3(region, message, tmp_path, capsys):
    # a NaN cut exited 0 and drew "M nan nan L nan nan" into the SVG
    bad = tmp_path / "tuple.json"
    bad.write_text(f'{{"regions": [{region}]}}')
    rc, out, err = run(capsys, "render", "--ngon", "4", "--tuple", str(bad))
    assert (rc, out, err) == (3, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, text",
    [
        # ",," wrote an empty CSV and a manifest, "," scanned 0 pairs, and
        # "2.." said only "invalid literal for int() with base 10: ''"
        (["exact", "--ngon", "6", "--k", ",,"], "empty range: ',,'"),
        (["conjecture-scan", "--n-range", ","], "empty range: ','"),
        (["exact", "--ngon", "6", "--k", "2.."], "got '2..'"),
        (["exact", "--ngon", "6", "--k", "3,x"], "got '3,x'"),
        (["conjecture-scan", "--n-range", "5", "--k-range", "2..3..4"], "got '2..3..4'"),
    ],
)
def test_empty_or_malformed_integer_list_exit_3(argv, text, tmp_path, capsys):
    out_file = tmp_path / "out.csv"
    rc, out, err = run(capsys, *argv, "--out", str(out_file))
    assert (rc, out) == (3, "")
    assert err.startswith("error: ") and text in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["exact", "--k", "2"],
        ["construct", "--family", "corner", "--k", "2"],
        ["construct", "--family", "inscribed", "--k", "2"],
        ["optimize", "--k", "2"],
        ["render"],
        ["symmetry-audit"],
    ],
)
def test_ngon_zero_reports_the_polygon_error(argv, capsys):
    rc, _, err = run(capsys, *argv, "--ngon", "0")
    assert rc == 3
    assert err == "error: n must be at least 3, got 0\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["exact", "--rect", "1", "nan", "--k", "2"],
        ["exact", "--disk", "nan", "--k", "2"],
        ["render", "--disk", "nan"],
        ["render", "--rect", "inf", "1"],
    ],
)
def test_non_finite_domain_exit_3(argv, capsys):
    # the NaN rectangle used to print I_2 = 0.5 [exact], as if a square
    rc, out, err = run(capsys, *argv)
    assert rc == 3
    assert out == ""
    if "--disk" in argv:  # a NaN radius is refused before any edge is built
        assert err == "error: disk radius must be positive, got nan\n"
    else:
        assert "non-finite" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        # a NaN budget passed the old "budget <= 0" check and switched the
        # enumeration guard off: this grid ran on past 20 s instead of exit 4
        (["optimize", "--ngon", "7", "--k", "3", "--grid", "2100", "--families", "caps",
          "--budget", "nan"], "budget must be positive, got nan"),
        (["optimize", "--disk", "--k", "3", "--budget", "0"], "budget must be positive"),
        # both used to print "cross-check: above closed form ... by 0"
        (["optimize", "--disk", "--k", "3", "--tolerance", "nan"], "tolerance must be finite"),
        (["optimize", "--disk", "--k", "3", "--tolerance", "-1"], "non-negative, got -1.0"),
    ],
)
def test_optimize_bad_budget_or_tolerance_exit_3(argv, message, capsys):
    rc, out, err = run(capsys, *argv)
    assert rc == 3
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "argv",
    [
        # "arc radius 1e+308 is not positive" before: the diagonal is inf
        ["exact", "--disk", "1e308", "--k", "2"],
        # "boundary chain encloses no area" before: the squared tolerance is inf
        ["exact", "--rect", "1e308", "1e308", "--k", "2"],
    ],
)
def test_overflowing_domain_exit_3(argv, capsys):
    rc, out, err = run(capsys, *argv)
    assert rc == 3
    assert out == ""
    assert "boundary chain's extent overflows" in err


def test_scan_non_finite_tolerance_exit_3(capsys):
    rc, out, err = run(capsys, "conjecture-scan", "--n-range", "5", "--tol", "nan")
    assert rc == 3
    assert out == ""
    assert "tolerance must be finite" in err


def test_exact_not_applicable_exit_3(capsys):
    rc, _, err = run(capsys, "exact", "--rect", "1", "2", "--k", "2")
    assert rc == 3
    assert "error:" in err


def test_version(capsys):
    rc, out, _ = run(capsys, "--version")
    assert rc == 0
    assert out.startswith("escobar ")
