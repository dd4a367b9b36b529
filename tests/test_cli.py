"""End-to-end CLI checks: exit codes, JSON payloads, determinism.

Everything runs in-process through main(argv), with output captured
via capsys, so the tests cover exactly what a shell user sees.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
import textwrap
from math import gcd

import pytest

import sfkale
from sfkale import cli
from sfkale.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


# ------------------------------------------------------------------ resolve


def test_resolve_json_payload(capsys):
    code, payload, _ = run_json(capsys, "resolve", "--p", "5", "--q", "2", "--json")
    assert code == 0
    assert set(payload) == {
        "p",
        "q",
        "coeffs",
        "dual_coeffs",
        "lattice_points",
        "monomials",
        "charts",
        "identities",
    }
    assert payload["coeffs"] == [3, 2]
    assert payload["dual_coeffs"] == [2, 3]
    assert payload["lattice_points"] == [
        ["0/1", "1/1"],
        ["1/5", "2/5"],
        ["3/5", "1/5"],
        ["1/1", "0/1"],
    ]
    assert payload["monomials"] == ["x^5", "x^3 y", "x y^2", "y^5"]
    assert payload["charts"] == [
        {"u": [5, 0], "v": [-2, 1]},
        {"u": [2, -1], "v": [-1, 3]},
        {"u": [1, -3], "v": [0, 5]},
    ]
    assert payload["identities"] == {
        "riemenschneider": "pass",
        "determinant": "pass",
        "cocycle": "pass",
    }


def test_resolve_text_output(capsys):
    code, out, _ = run(capsys, "resolve", "--p", "5", "--q", "2")
    assert code == 0
    assert "singularity 1/5(1,2)" in out
    assert "chart 0" in out
    assert "cocycle:pass" in out


def test_resolve_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "resolve", "--p", "7", "--q", "3", "--json")
    _, second, _ = run(capsys, "resolve", "--p", "7", "--q", "3", "--json")
    assert first == second


# sha256 of the concatenated stdout below, computed on the program before
# the chain's integer vectors were cached on it; any byte that moves in
# the exact verbs' output changes it
EXACT_VERBS_SHA256 = "4432230a8c7b3fd32caad617b920c10a5e976874f536a539442c98ada5db99b2"


def test_exact_verbs_output_is_byte_stable(capsys):
    digest = hashlib.sha256()
    for p in range(2, 40):
        for q in (q for q in range(1, p) if gcd(p, q) == 1):
            for argv in (
                ("resolve", "--p", str(p), "--q", str(q), "--json"),
                ("resolve", "--p", str(p), "--q", str(q)),
                ("moduli", "--group", f"cyclic:{p},{q}", "--json"),
            ):
                code, out, _ = run(capsys, *argv)
                assert code == 0, argv
                digest.update(out.encode())
    assert digest.hexdigest() == EXACT_VERBS_SHA256


# ------------------------------------------------------------------- moduli


def test_moduli_json_cyclic(capsys):
    code, payload, _ = run_json(capsys, "moduli", "--group", "cyclic:5,2", "--json")
    assert code == 0
    assert payload["group"] == "cyclic:5,2"
    assert payload["group_order"] == 5
    assert payload["moduli_dim"] == 6
    assert payload["family_dim"] == 8
    assert payload["deformations"] == 6
    assert payload["curves"] == 2
    assert payload["case"] == "cyclic-generic"


def test_moduli_accepts_keyed_cyclic_form(capsys):
    _, a, _ = run(capsys, "moduli", "--group", "cyclic:5,2", "--json")
    _, b, _ = run(capsys, "moduli", "--group", "cyclic:p=5,q=2", "--json")
    assert a == b


def test_moduli_json_product_family(capsys):
    code, payload, _ = run_json(capsys, "moduli", "--group", "tprod:l=5", "--json")
    assert code == 0
    assert payload["group_order"] == 120
    assert payload["moduli_dim"] == 15
    # star b = 2 with arms [2] [3] [3]: k = 4, j = 2(1 + 1 + 2 + 2) = 12
    assert (payload["curves"], payload["deformations"], payload["family_dim"]) == (4, 12, 16)
    assert payload["case"] == "noncyclic-star"
    assert payload["note"] == "star b = 2, arms [2] [3] [3]: m = j + k - 1"


def test_moduli_text_output(capsys):
    code, out, _ = run(capsys, "moduli", "--group", "tprod:l=5")
    assert code == 0
    assert "moduli_dim" in out
    assert "tprod:l=5 (order 120)" in out
    assert "family_dim    16\n" in out


# ------------------------------------------------------------------- tables


def test_table1_json(capsys):
    code, payload, _ = run_json(capsys, "table", "--which", "1", "--pmax", "5", "--json")
    assert code == 0
    assert payload["table"] == 1
    assert [(r["p"], r["family_dim"], r["moduli_dim"]) for r in payload["rows"]] == [
        (2, 3, 1),
        (3, 5, 2),
        (4, 7, 3),
        (5, 9, 5),
    ]


def test_table1_text(capsys):
    _, out, _ = run(capsys, "table", "--which", "1", "--pmax", "5")
    assert "1/3(1,1)" in out


# sha256 of `table --which 3 --lmax 1000` stdout, computed on the program
# that read the fifteen congruence rows from a hand-written table
TABLE3_SHA256 = {
    "--json": "75e163cafb98725f36e151eec4a88607d68c6467f9b03f384d4461dedc0d37ad",
    "text": "39eafef040dc14662bef7bcac97beb68b7c54a0a5e62b338a214bf5df47e68af",
}


@pytest.mark.parametrize("mode", sorted(TABLE3_SHA256))
def test_table3_output_is_byte_stable(capsys, mode):
    argv = ["table", "--which", "3", "--lmax", "1000"] + (["--json"] if mode == "--json" else [])
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE3_SHA256[mode]


ALL_VERBS_ARGV = [
    ("resolve", "--p", "7", "--q", "3"),
    ("resolve", "--p", "6", "--q", "3"),  # invalid pair: exit 1, no stdout
    ("moduli", "--group", "dprod:l=3,n=5"),
    ("table", "--which", "1", "--pmax", "6"),
    ("table", "--which", "3", "--lmax", "20"),
    ("verify-metric", "--potential", "eguchi-hanson", "--a", "2", "--rmin", "1", "--rmax", "8",
     "--samples", "6"),
    # Burns' S is taken from its exact t-derivatives: both pass, at any m
    ("verify-metric", "--potential", "burns", "--m", "1.5", "--rmin", "0.3", "--rmax", "8",
     "--samples", "6"),
    ("verify-metric", "--potential", "burns", "--m", "1e10", "--rmin", "1", "--rmax", "8",
     "--samples", "4"),
    # FAIL, naming the worst point
    ("verify-metric", "--potential", "eguchi-hanson", "--a", "2.5", "--order", "2", "--rmin",
     "0.3", "--rmax", "8", "--samples", "6"),
    # refused, exit 1 and no stdout: a^4 overflows a float
    ("verify-metric", "--potential", "eguchi-hanson", "--a", "1e100", "--rmin", "1", "--rmax",
     "8", "--samples", "4"),
    ("decay", "--potential", "eguchi-hanson", "--radii", "2:64:10"),
    ("decay", "--potential", "flat", "--radii", "2:64:10"),  # no signal
    ("riemenschneider", "--pmax", "20"),
]

# a JSON float with 8 or more significant digits: numpy's vector math
# moves such values with the CPU (turning off its AVX-512 kernels moves
# the S values in the 5th to 12th digit), so they are masked; echoed
# inputs, exact zeros and every text line stay pinned
_LONG_FLOAT = re.compile(r"-?(\d+)\.(\d+)(e[-+]\d+)?")


def _mask_long_floats(out: str) -> str:
    def mask(m):
        return "<float>" if len((m[1] + m[2]).strip("0")) >= 8 else m[0]

    return _LONG_FLOAT.sub(mask, out)


# sha256 of the exit code and stdout of every argv above, in text and in
# --json mode, computed with the Eguchi-Hanson and Burns S taken along t =
# log |z|^2 and the built-ins' metric in closed form (flat's decay
# deviations are exactly 0.0, which the mask leaves pinned); the same
# with numpy's AVX-512 and AVX2 kernels turned off
ALL_VERBS_SHA256 = "ec46c55030bd4fd91641f85d5571814180959c2f6a056d6a0dce5838194c1826"


def test_every_verb_output_is_byte_stable(capsys):
    digest = hashlib.sha256()
    for argv in ALL_VERBS_ARGV:
        for mode in ((), ("--json",)):
            code, out, _ = run(capsys, *argv, *mode)
            digest.update(f"{code}\n{_mask_long_floats(out)}".encode())
    assert digest.hexdigest() == ALL_VERBS_SHA256


def test_table3_json(capsys):
    code, payload, _ = run_json(capsys, "table", "--which", "3", "--lmax", "13", "--json")
    assert code == 0
    assert payload["table"] == 3
    assert len(payload["rows"]) == 13
    by_kind_l = {(r["kind"], r["l"]): r["moduli_dim"] for r in payload["rows"]}
    assert by_kind_l[("tprod", 7)] == 19
    assert by_kind_l[("iprod", 13)] == 19


# ------------------------------------------------------------ verify-metric


def test_verify_metric_flat_passes(capsys):
    code, payload, _ = run_json(
        capsys,
        "verify-metric",
        "--potential",
        "flat",
        "--rmin",
        "1",
        "--rmax",
        "4",
        "--samples",
        "8",
        "--json",
    )
    assert code == 0
    assert payload["passed"] is True
    assert payload["metric_positive"] is True
    assert payload["max_abs_scalar"] < 1e-8
    assert len(payload["scalar_values"]) == 8


def test_verify_metric_impossible_tolerance_fails(capsys):
    code, out, _ = run(
        capsys,
        "verify-metric",
        "--potential",
        "eguchi-hanson",
        "--rmin",
        "1",
        "--rmax",
        "4",
        "--samples",
        "4",
        "--tol",
        "1e-30",
    )
    assert code == 2
    assert "FAIL" in out


def test_verify_metric_locates_the_worst_point(capsys):
    # Eguchi-Hanson is exactly scalar-flat, so max |S| here is stencil error,
    # and it sits at the innermost radius, inside the bolt r < a
    argv = ["verify-metric", "--potential", "eguchi-hanson", "--a", "2.5", "--order", "2",
            "--rmin", "0.3", "--rmax", "8", "--samples", "16"]
    code, payload, _ = run_json(capsys, *argv, "--json")
    assert code == 2
    values = payload["scalar_values"]
    assert payload["worst_index"] == max(range(16), key=lambda i: abs(values[i])) == 0
    assert payload["degenerate_indices"] == []
    code, out, _ = run(capsys, *argv)
    assert code == 2
    assert "worst       point 0, radius 0.3\n" in out
    assert "degenerate" not in out


# -------------------------------------------------------------------- decay


def test_decay_eguchi_hanson(capsys):
    code, payload, _ = run_json(
        capsys, "decay", "--potential", "eguchi-hanson", "--radii", "2:64:10", "--json"
    )
    assert code == 0
    assert payload["no_signal"] is False
    assert abs(payload["mu"] - 4.0) < 0.1


def test_decay_flat_reports_no_signal(capsys):
    code, payload, _ = run_json(
        capsys, "decay", "--potential", "flat", "--radii", "2:64:10", "--json"
    )
    assert code == 0
    assert payload["no_signal"] is True
    assert payload["mu"] is None


# ----------------------------------------------------------- riemenschneider


def test_riemenschneider_json(capsys):
    code, payload, _ = run_json(capsys, "riemenschneider", "--pmax", "20", "--json")
    assert code == 0
    assert payload == {
        "pmax": 20,
        "pairs_checked": 90,
        "failures": 0,
        "first_failure": None,
    }


def test_riemenschneider_text(capsys):
    code, out, _ = run(capsys, "riemenschneider", "--pmax", "10")
    assert code == 0
    assert "all identities hold" in out


# -------------------------------------------------------------- error paths


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["bogus"],
        ["resolve", "--p", "5"],
        ["resolve", "--p", "6", "--q", "3"],
        ["moduli", "--group", "cyclic:6,3"],
        ["moduli", "--group", "nonsense"],
        ["decay", "--potential", "flat", "--radii", "8:2:5"],
        ["decay", "--potential", "flat", "--radii", "2-64-10"],
        ["table", "--which", "2"],
        ["verify-metric", "--potential", "unknown", "--rmin", "1", "--rmax", "4", "--samples", "4"],
        ["decay", "--potential", "eguchi-hanson", "--radii", "2:64:10", "--h0", "0.5"],
        # a malformed tolerance is a usage error, not a failed verification
        *(
            ["verify-metric", "--potential", "flat", "--rmin", "1", "--rmax", "2", "--samples", "2",
             "--tol", tol]
            for tol in ("nan", "-1", "0", "inf")
        ),
        # a potential parameter that is not finite is a usage error too
        ["verify-metric", "--potential", "eguchi-hanson", "--a", "inf", "--rmin", "1", "--rmax", "8",
         "--samples", "4"],
        ["verify-metric", "--potential", "burns", "--m", "inf", "--rmin", "1", "--rmax", "8",
         "--samples", "4"],
        # h0^2 underflows, so the step is rejected rather than every point degenerate
        ["verify-metric", "--potential", "flat", "--rmin", "1", "--rmax", "8", "--samples", "4",
         "--h0", "1e-300"],
        # a parameter flag of another potential is a usage error, not ignored
        ["verify-metric", "--potential", "burns", "--a", "2", "--rmin", "1", "--rmax", "8",
         "--samples", "4"],
        ["verify-metric", "--potential", "flat", "--m", "2", "--rmin", "1", "--rmax", "8",
         "--samples", "4"],
        ["decay", "--potential", "eguchi-hanson", "--m", "1", "--radii", "2:64:10"],
        ["decay", "--potential", "burns", "--a", "1", "--radii", "2:64:10"],
    ],
)
def test_usage_and_validation_errors_exit_1(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err  # some diagnostic lands on stderr


def test_parameter_flag_of_another_potential_is_named(capsys):
    code, out, err = run(capsys, "verify-metric", "--potential", "burns", "--a", "2",
                         "--rmin", "1", "--rmax", "8", "--samples", "4")
    assert (code, out) == (1, "")
    assert err == "error: --a applies to --potential eguchi-hanson, not burns\n"
    # each potential's own flag still defaults to 1
    for potential in ("eguchi-hanson", "burns"):
        _, payload, _ = run_json(capsys, "decay", "--potential", potential, "--radii", "2:64:10",
                                 "--json")
        assert payload["parameter"] == 1.0


def test_h0_that_leaves_no_sample_room_exits_1(capsys):
    code, _, err = run(capsys, "verify-metric", "--potential", "flat", "--h0", "0.1",
                       "--rmin", "2", "--rmax", "50", "--samples", "4")
    assert code == 1
    assert "h0 = 0.1" in err


def test_eguchi_hanson_a_whose_a4_overflows_exits_1(capsys):
    code, out, err = run(capsys, "verify-metric", "--potential", "eguchi-hanson", "--a", "1e100",
                         "--rmin", "1", "--rmax", "8", "--samples", "4")
    assert (code, out) == (1, "")
    assert "a = 1e+100 is too large: a^4 overflows a float" in err


def test_invalid_pair_diagnostic(capsys):
    code, _, err = run(capsys, "resolve", "--p", "6", "--q", "3")
    assert code == 1
    assert "error:" in err


def test_version(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.strip() == "sfkale 0.1.0"


# ------------------------------------------------------------------ imports


def test_exact_verbs_run_without_numpy():
    # curvature, and numpy with it, loads on first use of a curvature name
    script = textwrap.dedent(
        """
        import sys
        import sfkale
        import sfkale.cli
        from sfkale import cli
        assert cli.main(["resolve", "--p", "7", "--q", "3", "--json"]) == 0
        assert "numpy" not in sys.modules, "numpy was imported"
        unresolved = [name for name in sfkale.__all__ if not hasattr(sfkale, name)]
        assert not unresolved, unresolved
        """
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(sfkale.__file__)))
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr


def test_closed_pipe_exits_quietly_with_its_own_code():
    # the JSON table is larger than a pipe's buffer, so the verb is still
    # writing when the reader closes its end after the first line, as
    # `sfkale table --which 3 --lmax 1000 --json | head -1` does
    src = os.path.dirname(os.path.dirname(os.path.abspath(sfkale.__file__)))
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "sfkale.cli", "table", "--which", "3", "--lmax", "1000", "--json"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=60)
    assert proc.returncode == cli.EXIT_BROKEN_PIPE == 141
    assert stderr == b""


# ------------------------------------------------------------------- README


def _readme_examples():
    """(argv, output) of every `$ sfkale ...` example in the README's text blocks."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    examples = []
    for block in text.split("```text\n")[1:]:
        for chunk in block.split("```")[0].split("$ sfkale ")[1:]:
            command, _, output = chunk.partition("\n")
            examples.append((command.split(), output.rstrip("\n") + "\n"))
    return examples


README_EXAMPLES = _readme_examples()


def test_readme_lists_examples():
    assert [argv[0] for argv, _ in README_EXAMPLES] == [
        "resolve", "moduli", "decay", "verify-metric", "table", "riemenschneider"
    ]


@pytest.mark.parametrize(
    "argv, output", README_EXAMPLES, ids=[" ".join(argv) for argv, _ in README_EXAMPLES]
)
def test_readme_example_output(capsys, argv, output):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == output
