"""Command line surface: output schema, exit codes, determinism, the
size budget flag, and which flags each command takes.
"""

import hashlib
import json
import os
import subprocess
import sys

import jsonschema
import pytest

from permrf import cli
from permrf.verify import SuiteReport

SCHEMA_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                           "docs", "report_schema.json")
with open(SCHEMA_PATH) as fh:
    SCHEMA = json.load(fh)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def check_schema(payload):
    jsonschema.validate(payload, SCHEMA)


def test_field_command(capsys):
    code, out, err = run_cli(capsys, "field", "--field", "3:2")
    assert code == 0 and err == ""
    payload = json.loads(out)
    check_schema(payload)
    assert payload["field"] == "3^1:2"
    assert payload["q"] == 3 and payload["size"] == 9
    assert payload["top_modulus"] == [1, 0, 1]
    assert payload["generator"] == 4


def test_field_spec_forms(capsys):
    code, out, _ = run_cli(capsys, "field", "--field", "2^2:3")
    assert code == 0
    assert json.loads(out)["size"] == 64
    code, _, err = run_cli(capsys, "field", "--field", "junk")
    assert code == 2
    assert json.loads(err)["error"] == "UsageError"


def test_check_direct(capsys):
    code, out, _ = run_cli(capsys, "check", "--field", "3:2",
                           "--b", "3", "--c", "1")
    assert code == 0
    payload = json.loads(out)
    check_schema(payload)
    assert payload["method"] == "direct"
    assert payload["verdict"] is True
    assert payload["witness"] is None


def test_check_pairwise_witness(capsys):
    code, out, _ = run_cli(capsys, "check", "--field", "3:2", "--b", "3",
                           "--c", "2", "--method", "pairwise")
    assert code == 0
    payload = json.loads(out)
    check_schema(payload)
    assert payload["verdict"] is False
    assert payload["witness"] == [0, 1]


def test_check_with_linear_part(capsys):
    code, out, _ = run_cli(capsys, "check", "--field", "3:2", "--b", "3",
                           "--c", "1", "--L", "0,1", "--method", "pairwise")
    assert code == 0
    payload = json.loads(out)
    check_schema(payload)
    assert payload["L"] == [0, 1]
    assert payload["normalized_c"] == 1
    assert payload["verdict"] is True


def test_check_singular_L_requires_direct(capsys):
    code, _, err = run_cli(capsys, "check", "--field", "3:2", "--b", "3",
                           "--c", "1", "--L", "2,1", "--method", "pairwise")
    assert code == 2
    assert json.loads(err)["error"] == "UsageError"
    code, out, _ = run_cli(capsys, "check", "--field", "3:2", "--b", "3",
                           "--c", "1", "--L", "2,1", "--method", "direct")
    assert code == 0
    assert json.loads(out)["verdict"] is True


def test_check_error_payload(capsys):
    code, out, err = run_cli(capsys, "check", "--field", "3:2",
                             "--b", "2", "--c", "1")
    assert code == 2 and out == ""
    payload = json.loads(err)
    check_schema(payload)
    assert payload["error"] == "BInBaseField"


def test_classify_single_and_all(capsys):
    code, out, _ = run_cli(capsys, "classify", "--field", "3:2", "--b", "3")
    assert code == 0
    payload = json.loads(out)
    check_schema(payload)
    assert payload["method"] == "pairwise"
    (entry,) = payload["results"]
    assert entry == {"b": 3, "permuting_c": [1], "closed_form_c": 1,
                     "matches_closed_form": True}
    code, out, _ = run_cli(capsys, "classify", "--field", "3:2", "--all-b")
    payload = json.loads(out)
    check_schema(payload)
    assert [e["b"] for e in payload["results"]] == list(range(3, 9))
    assert all(e["matches_closed_form"] for e in payload["results"])


def test_classify_all_b_same_at_any_worker_count(capsys):
    outs = [run_cli(capsys, "classify", "--field", "2^2:2", "--all-b",
                    "--workers", w) for w in ("1", "2")]
    assert outs[0][0] == 0
    assert outs[0] == outs[1]


def test_workers_below_one_rejected(capsys):
    for workers in ("0", "-3"):
        code, out, err = run_cli(capsys, "classify", "--field", "3:2",
                                 "--all-b", "--workers", workers)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "UsageError"


def test_classify_needs_b(capsys):
    code, _, err = run_cli(capsys, "classify", "--field", "3:2")
    assert code == 2
    assert json.loads(err)["error"] == "UsageError"


def test_classify_refuses_b_with_all_b(capsys):
    code, out, err = run_cli(capsys, "classify", "--field", "3:2",
                             "--b", "3", "--all-b")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "UsageError"


def test_factor_command(capsys):
    code, out, _ = run_cli(capsys, "factor", "--field", "3:2",
                           "--b", "3", "--c", "1")
    assert code == 0
    payload = json.loads(out)
    check_schema(payload)
    assert (payload["found"], payload["beta"], payload["gamma"],
            payload["delta"]) == (True, 3, 6, 0)
    code, out, _ = run_cli(capsys, "factor", "--field", "3:2",
                           "--b", "3", "--c", "2")
    payload = json.loads(out)
    check_schema(payload)
    assert payload["found"] is False
    assert payload["beta"] is None


def test_points_command(capsys):
    code, out, _ = run_cli(capsys, "points", "--field", "3:2", "--b", "3",
                           "--c", "2", "--which", "f2", "--pretty")
    assert code == 0
    payload = json.loads(out)
    check_schema(payload)
    assert payload["bidegree"] == [2, 2]
    assert payload["offdiag_zeros"] == 6
    assert payload["grid"] == [[2, 0, 1], [0, 2, 0], [1, 0, 1]]
    assert "curve_pretty" in payload


def test_points_f3_kernel(capsys):
    code, out, _ = run_cli(capsys, "points", "--field", "2:3", "--b", "2",
                           "--c", "5", "--which", "f3kernel")
    assert code == 0
    payload = json.loads(out)
    check_schema(payload)
    assert payload["bidegree"] == [2, 2]
    assert payload["grid"] == [[0, 1, 1], [1, 0, 1], [1, 1, 1]]


def test_weil_command(capsys):
    code, out, _ = run_cli(capsys, "weil", "--degree", "6", "--q", "431")
    assert code == 0
    payload = json.loads(out)
    check_schema(payload)
    assert payload["holds"] is True
    code, out, _ = run_cli(capsys, "weil", "--degree", "6")
    payload = json.loads(out)
    check_schema(payload)
    assert payload["holds"] is None


def test_pretty_adds_renderings(capsys):
    _, plain, _ = run_cli(capsys, "check", "--field", "3:2",
                          "--b", "3", "--c", "1")
    _, pretty, _ = run_cli(capsys, "check", "--field", "3:2",
                           "--b", "3", "--c", "1", "--pretty")
    assert "b_pretty" not in json.loads(plain)
    assert json.loads(pretty)["b_pretty"] == "v"


def test_verify_command_writes_reports(capsys, tmp_path):
    json_path = tmp_path / "reports.json"
    csv_path = tmp_path / "rows.csv"
    code, out, _ = run_cli(capsys, "verify", "--suite", "theorem-n2",
                           "--q", "3", "--json", str(json_path),
                           "--csv", str(csv_path))
    assert code == 0
    payload = json.loads(out)
    check_schema(payload)
    assert payload[0]["verdict"] == "pass"
    assert json.loads(json_path.read_text()) == payload
    assert csv_path.read_text().splitlines()[0].startswith("suite,")


def test_verify_stdout_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "verify", "--suite", "theorem-n2",
                          "--q", "3,4")
    _, second, _ = run_cli(capsys, "verify", "--suite", "theorem-n2",
                           "--q", "3,4")
    assert first == second


# sha256 of the canonical stdout of kernel-heavy runs at --workers 1
# --seed 0, recorded before the pair tests moved to the shared log-domain
# scan; a change to any witness, classification or byte of the report
# moves the digest.
CANONICAL_DIGESTS = {
    "proposition": (
        ("--suite", "proposition", "--q", "4,5"),
        "7be588ab8caefd71a11334eeb0dfbf5bbfcf4b3750f80e18a00234c08f2f962b"),
    "theorem-n2": (
        ("--suite", "theorem-n2", "--q", "3,4,5", "--mode", "classify"),
        "3d3dab19eb75c3899847969dbae8381b73be7b29ae6f3c4a03d95d9f3f056351"),
    "theorem-n2-spot": (
        ("--suite", "theorem-n2", "--q", "3,4,5,7", "--mode", "spot"),
        "6c49bf4139779082e0d71662c5441df3a69a04f383221f61f47f576f8b79599a"),
    "theorem-n3": (
        ("--suite", "theorem-n3", "--q", "2,3", "--mode", "full-classify"),
        "704ec9646e135695d5391c1a3cf833d29824feff93767483bb3554a1ba679f44"),
    "lemma-equiv": (
        ("--suite", "lemma-equiv", "--samples", "30"),
        "8af5f2ba0091eb218c2ba34c68dd5d86f36328317a6be069b9155f5f2c40f926"),
}


@pytest.mark.parametrize("argv,digest", list(CANONICAL_DIGESTS.values()),
                         ids=list(CANONICAL_DIGESTS))
def test_verify_canonical_stdout_digest(capsys, argv, digest):
    code, out, err = run_cli(capsys, "verify", *argv,
                             "--workers", "1", "--seed", "0")
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the whole battery's canonical stdout and CSV at --seed 0,
# recorded at --workers 1; two workers must give the same bytes.
BATTERY_STDOUT_DIGEST = (
    "95174dbd092af319345c3479bcaa7925312e293800c04f1187914ca2180d38c7")
BATTERY_CSV_DIGEST = (
    "8d2af60ec56edfc500f38ada2d31407f8cc242c3d42dafa1c0244b328395f5b7")


@pytest.mark.parametrize("workers", ["1", "2"])
def test_verify_battery_digests(capsys, tmp_path, workers):
    csv_path = tmp_path / "battery.csv"
    code, out, err = run_cli(capsys, "verify", "--suite", "all",
                             "--workers", workers, "--seed", "0",
                             "--csv", str(csv_path))
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == BATTERY_STDOUT_DIGEST
    assert (hashlib.sha256(csv_path.read_bytes()).hexdigest()
            == BATTERY_CSV_DIGEST)


def test_verify_timings_breaks_canonical_form(capsys):
    _, out, _ = run_cli(capsys, "verify", "--suite", "theorem-n2",
                        "--q", "3", "--timings")
    payload = json.loads(out)
    check_schema(payload)
    assert "elapsed" in payload[0]


def test_verify_report_only_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "theorem-n3",
                           "--q", "2", "--mode", "full-classify")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["verdict"] == "report-only"


def test_verify_assertive_failure_exits_one(capsys, monkeypatch):
    def failing(qs=None, *, seed=0, workers=1, size_budget=None, mode=None,
                samples=1000):
        return [SuiteReport(
            suite="lemma-basis", field_spec="3^1:3", q=qs[0], n=3, mode=None,
            assertive=True, seed=seed, size_budget=1 << 24, cases_total=1,
            cases_passed=0,
            exceptions=[{"b": 3, "b_pretty": "v", "c": None,
                         "c_pretty": None, "detail": "synthetic"}],
            verdict="fail", elapsed=0.0)]

    monkeypatch.setitem(cli.verify.SUITES, "lemma-basis", failing)
    code, out, _ = run_cli(capsys, "verify", "--suite", "lemma-basis",
                           "--q", "3")
    assert code == 1
    payload = json.loads(out)
    check_schema(payload)
    assert payload[0]["verdict"] == "fail"


def test_verify_rejects_negative_samples(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "lemma-equiv",
                             "--samples", "-3")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "UsageError"
    # Suites with default qs check samples too, though none of them reads it.
    code, out, err = run_cli(capsys, "verify", "--suite", "theorem-n2",
                             "--q", "3", "--samples", "-3")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "UsageError"


def test_verify_suite_all_rejects_q(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "all", "--q", "3")
    assert code == 2
    assert json.loads(err)["error"] == "UsageError"


def test_verify_unknown_suite_is_parse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "nonesuch"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_verify_help_names_every_mode(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "500")  # no wrapping inside a mode name
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["verify", "--help"])
    help_text = capsys.readouterr().out
    for name, suite in cli.verify.SUITES.items():
        if suite.modes:
            assert f"{name}: {'|'.join(suite.modes)}" in help_text


def test_import_builds_no_parser():
    """Importing permrf.cli builds no parser, so every import stays as
    cheap as before; main builds one on its first call."""
    code = "\n".join((
        "import argparse",
        "built = []",
        "init = argparse.ArgumentParser.__init__",
        "def counting(self, *args, **kwargs):",
        "    built.append(1)",
        "    init(self, *args, **kwargs)",
        "argparse.ArgumentParser.__init__ = counting",
        "import permrf.cli",
        "print(len(built), permrf.cli._parser.cache_info().currsize)",
    ))
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0"]


def test_main_builds_one_parser(capsys, monkeypatch):
    built = []
    build = cli.build_parser

    def counting():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        for degree in ("4", "5", "6"):
            assert run_cli(capsys, "weil", "--degree", degree)[0] == 0
        assert run_cli(capsys, "field", "--field", "junk")[0] == 2
        with pytest.raises(SystemExit):
            cli.main(["nonesuch"])
        capsys.readouterr()
    finally:
        cli._parser.cache_clear()
    assert built == [1]


# A success, a parse error, help, an error-free check and a verify run,
# in one process: each answers as a freshly built parser does.
PARSER_STEPS = (
    ("field", "--field", "3:2"),
    ("check", "--field", "3:2", "--b", "three", "--c", "1"),
    ("verify", "--help"),
    ("check", "--field", "3:2", "--b", "3", "--c", "2", "--method",
     "pairwise"),
    ("verify", "--suite", "corollary", "--q", "2", "--workers", "1"),
)


def run_steps(capsys, steps):
    results = []
    for argv in steps:
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = f"SystemExit {exc.code}"
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err))
    return results


def test_kept_parser_answers_as_a_fresh_one(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    cli._parser.cache_clear()
    kept = run_steps(capsys, PARSER_STEPS)
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = run_steps(capsys, PARSER_STEPS)
    assert kept == fresh
    assert [code for code, _, _ in kept] == [
        0, "SystemExit 2", "SystemExit 0", 0, 0]
    assert "--suite" in kept[2][1]
    assert json.loads(kept[3][1])["witness"] == [0, 1]


def test_budget_env_and_flag(capsys, monkeypatch):
    """--budget is the one way to set the budget; the environment has no say."""
    monkeypatch.setenv("PERMRF_BUDGET", "junk")
    code, _, err = run_cli(capsys, "field", "--field", "3:5",
                           "--budget", "100")
    assert code == 2
    assert json.loads(err)["error"] == "SizeBudgetExceeded"
    code, _, _ = run_cli(capsys, "field", "--field", "3:5",
                         "--budget", "300")
    assert code == 0
    code, _, _ = run_cli(capsys, "field", "--field", "3:5")
    assert code == 0


@pytest.mark.parametrize("argv", [
    ("weil", "--degree", "4", "--budget", "100"),
    ("weil", "--degree", "4", "--seed", "0"),
    ("weil", "--degree", "4", "--workers", "1"),
    ("weil", "--degree", "4", "--pretty"),
    ("verify", "--suite", "corollary", "--pretty"),
])
def test_unread_flags_are_parse_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("field", "--field", "3:2"),
    ("check", "--field", "3:2", "--b", "3", "--c", "1"),
    ("classify", "--field", "3:2", "--b", "3"),
    ("factor", "--field", "3:2", "--b", "3", "--c", "1"),
    ("points", "--field", "3:2", "--b", "3", "--c", "1", "--which", "f2"),
])
def test_field_commands_take_seed_workers_pretty(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--seed", "0", "--workers", "1",
                             "--pretty")
    assert code == 0 and err == ""
    check_schema(json.loads(out))


def test_custom_modulus_flags(capsys):
    code, out, _ = run_cli(capsys, "field", "--field", "3:2",
                           "--modulus-h", "2,2,1")
    assert code == 0
    assert json.loads(out)["top_modulus"] == [2, 2, 1]
    code, _, err = run_cli(capsys, "field", "--field", "2:2",
                           "--modulus-h", "1,0,1")
    assert code == 2
    assert json.loads(err)["error"] == "InvalidModulus"
    code, out, err = run_cli(capsys, "field", "--field", "3:2",
                             "--modulus-h", "5,0,1")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "InvalidModulus"


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "lemma-basis", "--q", ""),
    ("check", "--field", "3:2", "--b", "3", "--c", "1", "--L", ""),
    ("field", "--field", "3:2", "--modulus-g", ""),
    ("field", "--field", "3:2", "--modulus-h", ""),
])
def test_empty_list_flags_are_refused(capsys, argv):
    # An empty list is no list: it once ran as if the flag were absent.
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    error = json.loads(err)
    assert error["error"] == "UsageError"
    assert argv[-2] in error["detail"]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "permrf", "weil", "--degree", "4",
         "--q", "53"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["holds"] is True


@pytest.mark.parametrize("argv", [
    ("field", "--field", "2305843009213693951:2"),
    ("verify", "--suite", "lemma-basis", "--q", "2305843009213693951"),
    ("field", "--field", "2:100000000000"),
])
def test_budget_refuses_before_factoring_or_sizing(argv):
    """A prime near 2^61 or a degree of 10^11 is refused by the budget
    at once; factoring p or computing p^(m*n) first would stall."""
    proc = subprocess.run(
        [sys.executable, "-m", "permrf", *argv, "--workers", "1"],
        capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2 and proc.stdout == ""
    assert json.loads(proc.stderr)["error"] == "SizeBudgetExceeded"


@pytest.mark.parametrize("suite, q, bound", [
    ("corollary", "4099", "q^4"),
    ("factorizations", "257", "q^6"),
])
def test_verify_refuses_q_whose_towers_are_all_over_budget(suite, q, bound):
    """q itself is within the budget but every tower the suite would build
    over it is not: the run is refused, not reported empty."""
    proc = subprocess.run(
        [sys.executable, "-m", "permrf", "verify", "--suite", suite,
         "--q", q, "--workers", "1"],
        capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2 and proc.stdout == ""
    err = json.loads(proc.stderr)
    assert err["error"] == "SizeBudgetExceeded"
    assert f"q = {q}" in err["detail"] and bound in err["detail"]
